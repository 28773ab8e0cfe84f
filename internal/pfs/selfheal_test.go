package pfs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/health"
	"repro/internal/nfs"
	"repro/internal/sched"
)

// TestSelfHealClosedLoop is the acceptance demo: a redundant array
// with a hot spare and the supervisor on serves live NFS traffic; the
// fault seam kills a member with NO manual repair call anywhere; the
// monitor detects the death from driver evidence, promotes the spare,
// rebuilds and scrub-verifies — all while the clients keep writing —
// and every acknowledged byte reads back, including after a restart.
func TestSelfHealClosedLoop(t *testing.T) {
	base := filepath.Join(t.TempDir(), "heal.img")
	cfg := Config{
		Path: base, Blocks: 8192, CacheBlocks: 256,
		Volumes: 3, Placement: "mirrored", StripeBlocks: 2,
		Spares: 1, SelfHeal: true, HealthInterval: 5 * time.Millisecond,
		Fault: &device.FaultConfig{},
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if srv.Members.Monitor == nil || srv.Members.Monitor.Members() != 3 {
		t.Fatalf("supervisor not running over 3 members")
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Live traffic: each client creates, writes and reads files in a
	// loop until told to stop, recording every acknowledged file. The
	// array retries a dead member's I/O from redundancy, so not one
	// call may fail through the kill and the repair.
	const clients = 4
	type acked struct {
		path    string
		payload []byte
	}
	var ackMu sync.Mutex
	var ackedFiles []acked
	stop := make(chan struct{})
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		id := i
		go func() {
			errs <- func() error {
				c, err := nfs.Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				root, _, err := c.Mount(1)
				if err != nil {
					return fmt.Errorf("client %d: mount: %w", id, err)
				}
				dir, _, err := c.Mkdir(root, fmt.Sprintf("c%d", id))
				if err != nil {
					return fmt.Errorf("client %d: mkdir: %w", id, err)
				}
				// A new file every round for the whole window: the member
				// logs keep growing through the kill and the repair.
				for r := 0; ; r++ {
					select {
					case <-stop:
						return nil
					default:
					}
					name := fmt.Sprintf("f%d", r)
					payload := bytes.Repeat([]byte{byte(1 + id*31 + r%191)}, 2*core.BlockSize+511)
					fh, _, err := c.Create(dir, name)
					if err != nil {
						return fmt.Errorf("client %d round %d: create: %w", id, r, err)
					}
					if _, err := c.Write(fh, 0, payload); err != nil {
						return fmt.Errorf("client %d round %d: write: %w", id, r, err)
					}
					ackMu.Lock()
					ackedFiles = append(ackedFiles, acked{fmt.Sprintf("c%d/f%d", id, r), payload})
					ackMu.Unlock()
					fh, _, err = c.Lookup(dir, name)
					if err != nil {
						return fmt.Errorf("client %d round %d: lookup: %w", id, r, err)
					}
					got, err := c.Read(fh, 0, len(payload))
					if err != nil {
						return fmt.Errorf("client %d round %d: read: %w", id, r, err)
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("client %d round %d: read-back mismatch", id, r)
					}
				}
			}()
		}()
	}

	// Let the traffic warm up, then kill a member at the fault seam.
	// From here, no test code touches the repair path.
	time.Sleep(100 * time.Millisecond)
	const victim = 1
	srv.Fault.Kill(victim)

	var evs []health.HealEvent
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if evs = srv.HealEvents(); len(evs) > 0 {
			break
		}
	}
	close(stop)
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(evs) == 0 {
		t.Fatal("no supervised repair within 30s of the kill")
	}
	ev := evs[0]
	if ev.Member != victim || ev.Err != "" || ev.Spare != 0 {
		t.Fatalf("heal event %+v, want member %d healed onto spare 0", ev, victim)
	}
	if ev.KilledAt == 0 || ev.DetectMS < 0 || ev.MTTRMS <= 0 {
		t.Fatalf("heal event timings missing: %+v", ev)
	}
	if ev.ScrubMismatches != 0 {
		t.Fatalf("verify scrub found %d mismatches", ev.ScrubMismatches)
	}
	if srv.Array.Degraded() {
		t.Fatal("array degraded after supervised repair")
	}
	if v := srv.Members.Monitor.Verdict(victim); v != health.Healthy {
		t.Fatalf("promoted member's verdict %v, want healthy", v)
	}
	if n := srv.Array.SparePromotions(); n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
	if n := srv.Array.SpareCount(); n != 0 {
		t.Fatalf("%d spares idle after promotion, want 0", n)
	}
	if got := srv.Array.Origins(); got[victim] != 0 {
		t.Fatalf("origins %v, want member %d from spare 0", got, victim)
	}

	// Zero acknowledged loss: every acked file reads back through the
	// healed array.
	verify := func(addr string, tag string) {
		t.Helper()
		c, err := nfs.Dial(addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", tag, err)
		}
		defer c.Close()
		root, _, err := c.Mount(1)
		if err != nil {
			t.Fatalf("%s: mount: %v", tag, err)
		}
		ackMu.Lock()
		files := append([]acked(nil), ackedFiles...)
		ackMu.Unlock()
		for _, f := range files {
			dir, name := filepath.Split(f.path)
			dfh, _, err := c.Lookup(root, filepath.Clean(dir))
			if err != nil {
				t.Fatalf("%s: lookup %s: %v", tag, dir, err)
			}
			fh, _, err := c.Lookup(dfh, name)
			if err != nil {
				t.Fatalf("%s: lookup %s: %v", tag, f.path, err)
			}
			got, err := c.Read(fh, 0, len(f.payload))
			if err != nil {
				t.Fatalf("%s: read %s: %v", tag, f.path, err)
			}
			if !bytes.Equal(got, f.payload) {
				t.Fatalf("%s: acknowledged bytes of %s lost", tag, f.path)
			}
		}
	}
	verify(addr, "healed")
	if len(ackedFiles) == 0 {
		t.Fatal("no acknowledged writes — the loop was not exercised under load")
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The promoted spare is a first-class member across a restart: the
	// renamed image mounts in the member slot, lineage intact.
	cfg.SelfHeal, cfg.Spares, cfg.Fault = false, 0, nil
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Array.Origins(); got[victim] != 0 {
		t.Fatalf("lineage lost across restart: origins %v", got)
	}
	addr2, err := srv2.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve after reopen: %v", err)
	}
	verify(addr2, "reopened")
}

// TestSelfHealSecondFaultRefused pins the graceful-degradation story:
// with the pool empty (one spare, two deaths) the second confirmed
// death is refused loudly — the array keeps serving degraded, nothing
// crashes, and the refusal is visible in the heal log and counters.
func TestSelfHealSecondFaultRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "heal2.img")
	srv, err := Open(Config{
		Path: base, Blocks: 2048, CacheBlocks: 128,
		Volumes: 3, Placement: "mirrored", StripeBlocks: 2,
		Spares: 1, SelfHeal: true, HealthInterval: 5 * time.Millisecond,
		Fault: &device.FaultConfig{},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer srv.Close()
	msg := bytes.Repeat([]byte{0xA5}, 3*core.BlockSize)
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Create(tk, "/keep.bin", core.TypeRegular)
		if err != nil {
			return err
		}
		if err := srv.Vol.Write(tk, h, msg, int64(len(msg))); err != nil {
			return err
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// First death: healed onto the only spare via the manual override
	// (same supervised path, no traffic needed to generate evidence).
	if err := srv.MarkMemberDead(0); err != nil {
		t.Fatalf("mark dead: %v", err)
	}
	waitEvents := func(n int) []health.HealEvent {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if evs := srv.HealEvents(); len(evs) >= n {
				return evs
			}
		}
		t.Fatalf("no %dth heal event", n)
		return nil
	}
	evs := waitEvents(1)
	if evs[0].Err != "" || evs[0].Spare != 0 {
		t.Fatalf("first heal %+v, want clean promotion of spare 0", evs[0])
	}

	// Second death: the pool is dry. Refused, degraded, still serving.
	if err := srv.MarkMemberDead(2); err != nil {
		t.Fatalf("mark dead: %v", err)
	}
	evs = waitEvents(2)
	if evs[1].Err == "" || evs[1].Spare != -1 {
		t.Fatalf("second heal %+v, want a loud refusal", evs[1])
	}
	if !srv.Array.Degraded() || srv.Array.DeadMember() != 2 {
		t.Fatalf("array not serving degraded after refusal (dead=%d)", srv.Array.DeadMember())
	}
	if n := srv.Array.SpareRefusals(); n == 0 {
		t.Fatal("refusal not counted")
	}
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Open(tk, "/keep.bin")
		if err != nil {
			return err
		}
		buf := make([]byte, len(msg))
		if _, err := srv.Vol.Read(tk, h, buf, int64(len(msg))); err != nil {
			return err
		}
		if !bytes.Equal(buf, msg) {
			t.Error("degraded read-back mismatch")
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
}

// TestMarkDeadRightAfterOpenHealsOnce: a manual death declared before
// the supervisor task has run is repaired once. The supervisor's start
// (adopting a member the array already routes around) must not take
// the member the repair has just isolated for a second death and kill
// the promoted spare.
func TestMarkDeadRightAfterOpenHealsOnce(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv, err := Open(Config{
			Path: filepath.Join(t.TempDir(), "once.img"), Blocks: 2048, CacheBlocks: 96,
			Volumes: 3, Placement: "mirrored", StripeBlocks: 2,
			Spares: 1, SelfHeal: true, HealthInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := srv.MarkMemberDead(1); err != nil {
			t.Fatalf("mark dead: %v", err)
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if evs := srv.HealEvents(); len(evs) != 1 || evs[0].Err != "" {
			t.Fatalf("round %d: heal events %+v, want one clean repair", i, evs)
		}
	}
}
