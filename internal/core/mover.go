package core

// DataMover separates the on-line system from the simulator at the
// one point where they must differ: moving bytes. In PFS a mover
// really copies memory; in Patsy the mover accounts for the time a
// copy of that size would take and moves nothing. Components written
// against DataMover run unchanged in both instantiations — this is
// the paper's "helper components compensate for the lack of real
// data".
type DataMover interface {
	// Move transfers n bytes from src to dst. Either slice may be
	// nil in a simulator. It returns the number of bytes moved.
	Move(dst, src []byte, n int) int
	// CopyCost reports the time in nanoseconds that moving n bytes
	// costs on the configured memory system. Real movers report 0:
	// the cost is paid for real.
	CopyCost(n int) int64
}

// RealMover copies bytes with copy(); moving data costs real time,
// so CopyCost reports zero.
type RealMover struct{}

// Move copies min(n, len(dst), len(src)) bytes.
func (RealMover) Move(dst, src []byte, n int) int {
	if n > len(src) {
		n = len(src)
	}
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	return copy(dst[:n], src[:n])
}

// CopyCost is zero for a real mover: the copy itself takes the time.
func (RealMover) CopyCost(int) int64 { return 0 }

// SimMover moves no data and charges virtual time per byte, modeling
// the host memory system of the simulated machine.
type SimMover struct {
	// BytesPerSec is the modeled memory-copy bandwidth. The paper's
	// Sun 4/280 host is modeled at 80 MB/s by default.
	BytesPerSec int64
	// FixedNS is a fixed per-copy overhead in nanoseconds.
	FixedNS int64
}

// DefaultSimMover models the Sun 4/280-class host used in the
// paper's Sprite replay.
func DefaultSimMover() *SimMover {
	return &SimMover{BytesPerSec: 80 << 20, FixedNS: 2000}
}

// Move moves nothing and returns n; the caller charges CopyCost.
func (*SimMover) Move(_, _ []byte, n int) int { return n }

// CopyCost reports the modeled copy time for n bytes.
func (m *SimMover) CopyCost(n int) int64 {
	if n <= 0 {
		return 0
	}
	bps := m.BytesPerSec
	if bps <= 0 {
		bps = 80 << 20
	}
	return m.FixedNS + (int64(n)*1e9)/bps
}
