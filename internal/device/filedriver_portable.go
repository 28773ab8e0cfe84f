//go:build !linux

package device

import "os"

// vecIO is the portable scatter-gather fallback: one positioned
// transfer per segment, no gather copy. os.File pins the descriptor
// for each call, so a concurrent Close never races a transfer.
type vecIO struct {
	f *os.File
}

func (v *vecIO) init(f *os.File) error {
	v.f = f
	return nil
}

// transfer moves vec to (OpWrite) or from (OpRead) the file starting
// at off.
func (v *vecIO) transfer(op Op, vec [][]byte, off int64) error {
	for _, s := range vec {
		if len(s) == 0 {
			continue
		}
		var err error
		if op == OpRead {
			_, err = v.f.ReadAt(s, off)
		} else {
			_, err = v.f.WriteAt(s, off)
		}
		if err != nil {
			return err
		}
		off += int64(len(s))
	}
	return nil
}
