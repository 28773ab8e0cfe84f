package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// StageTime returns the accumulated time in stage s.
func (o *Op) StageTime(s Stage) time.Duration {
	if o == nil {
		return 0
	}
	return o.stage[s]
}

func TestTracerLifecycle(t *testing.T) {
	k := sched.NewVirtual(1)
	tr := NewTracer(k, 50*time.Millisecond)
	k.Go("op", func(task sched.Task) {
		start := k.Now()
		op := tr.Begin("read", start)
		tr.Bind(task, op)
		if tr.Current(task) != op {
			t.Error("Current did not return the bound op")
		}
		task.Sleep(10 * time.Millisecond)
		op.Add(StageCache, k.Now().Sub(start))
		task.Sleep(100 * time.Millisecond)
		op.Add(StageDisk, 100*time.Millisecond)
		tr.Unbind(task)
		if tr.Current(task) != nil {
			t.Error("Current returned an op after Unbind")
		}
		tr.Finish(op, k.Now())

		// A second, fast op, begun in the first one's Op, stays out of
		// the slow ring and starts with no stage time.
		op2 := tr.BeginIn(op, "getattr", k.Now())
		if op2 != op || op2.StageTime(StageDisk) != 0 {
			t.Errorf("BeginIn gave %p with disk stage %v, want %p afresh", op2, op2.StageTime(StageDisk), op)
		}
		tr.Finish(op2, k.Now().Add(time.Millisecond))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := tr.total.Total(); n != 2 {
		t.Fatalf("total observations = %d", n)
	}
	if tr.slow.Value() != 1 {
		t.Fatalf("slow count = %d", tr.slow.Value())
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].Name != "read" {
		t.Fatalf("slow ring = %+v", slow)
	}
	if slow[0].Stages[StageDisk] != 100*time.Millisecond {
		t.Fatalf("disk stage = %v", slow[0].Stages[StageDisk])
	}
	if slow[0].Total != 110*time.Millisecond {
		t.Fatalf("total = %v", slow[0].Total)
	}
	if other := slow[0].Other(); other != 0 {
		t.Fatalf("other = %v", other)
	}
	if out := tr.RenderSlow(); !strings.Contains(out, "read") || !strings.Contains(out, "disk=") {
		t.Fatalf("render:\n%s", out)
	}

	reg := NewRegistry()
	tr.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE pfs_op_seconds histogram",
		`pfs_op_stage_seconds_count{stage="disk"} 2`,
		`pfs_op_stage_seconds_count{stage="cache"} 2`,
		`pfs_op_stage_seconds_count{stage="queue"} 2`,
		"pfs_op_slow_total 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, b.String())
		}
	}
}

// A nil tracer (simulator assemblies) must be a complete no-op.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	op := tr.Begin("x", 0)
	if op != nil || tr.BeginIn(&Op{}, "x", 0) != nil {
		t.Fatal("nil tracer minted an op")
	}
	op.Add(StageCache, time.Second) // nil op: no-op
	if op.StageTime(StageCache) != 0 {
		t.Fatal("nil op accumulated")
	}
	tr.Finish(op, 0)
	if tr.Slow() != nil {
		t.Fatal("nil tracer has a ring")
	}
	if !strings.Contains(tr.RenderSlow(), "disabled") {
		t.Fatal("nil RenderSlow")
	}
	tr.Register(NewRegistry())
	if tr.Now() != 0 {
		t.Fatal("nil Now")
	}
}

func TestAdminServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.AddGaugeFunc("pfs_test_gauge", "G.", nil, func() float64 { return 42 })
	healthy := true
	srv := NewServer(reg, nil,
		func() error {
			if !healthy {
				return errTest
			}
			return nil
		},
		func() string { return "status body\n" })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body, code := httpGet(t, addr, "/metrics"); code != 200 || !strings.Contains(body, "pfs_test_gauge 42") {
		t.Fatalf("metrics %d:\n%s", code, body)
	}
	if body, code := httpGet(t, addr, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz %d: %s", code, body)
	}
	healthy = false
	if body, code := httpGet(t, addr, "/healthz"); code != 503 || !strings.Contains(body, "unhealthy") {
		t.Fatalf("unhealthy healthz %d: %s", code, body)
	}
	if body, code := httpGet(t, addr, "/statusz"); code != 200 || !strings.Contains(body, "status body") {
		t.Fatalf("statusz %d: %s", code, body)
	}
	if body, code := httpGet(t, addr, "/statusz?slow=1"); code != 200 || !strings.Contains(body, "tracing disabled") {
		t.Fatalf("statusz?slow=1 %d: %s", code, body)
	}
	if _, code := httpGet(t, addr, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof %d", code)
	}
}
