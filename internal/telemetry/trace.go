package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/stats"
)

// Stage is one segment of an operation's latency breakdown.
type Stage int

const (
	// StageQueue is time spent queued behind the connection's
	// pipeline window before the executor picked the call up.
	StageQueue Stage = iota
	// StageCache is time spent inside the block cache: lookup,
	// waiting for frames under pressure, waiting on NVRAM headroom,
	// waiting out a concurrent fill.
	StageCache
	// StageDisk is time spent in the layout/device path: reading
	// missed blocks (and read-modify-write fills) from the array.
	StageDisk
	numStages
)

// String names the stage for labels and renders.
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageCache:
		return "cache"
	case StageDisk:
		return "disk"
	}
	return fmt.Sprintf("stage#%d", int(s))
}

// Stages lists every stage in order.
func Stages() []Stage { return []Stage{StageQueue, StageCache, StageDisk} }

// Op is one traced operation. It is owned by the task executing the
// operation from Begin to Finish — stage accumulation needs no lock —
// and is immutable (snapshotted into the slow ring) afterwards.
type Op struct {
	Name  string
	Start sched.Time
	stage [numStages]time.Duration
}

// Add accumulates d into stage s. Safe on a nil Op (untraced paths
// pass the nil through rather than branching).
func (o *Op) Add(s Stage, d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.stage[s] += d
}

// SlowOp is one slow-ring entry: a finished op over the threshold.
type SlowOp struct {
	Name   string
	Start  sched.Time
	Total  time.Duration
	Stages [numStages]time.Duration
}

// Other is the part of Total not attributed to any stage (request
// decode, data copy, layout metadata under cached inodes, reply
// encode).
func (s SlowOp) Other() time.Duration {
	d := s.Total
	for _, st := range s.Stages {
		d -= st
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DefaultSlowThreshold is the slow-op ring's capture threshold when
// the assembly doesn't pick one.
const DefaultSlowThreshold = 100 * time.Millisecond

// slowRingSize bounds the slow-op log.
const slowRingSize = 128

// Tracer threads per-op context through the stack. The NFS executor
// Begins an op and Binds it to its task; fsys and the cache look the
// op up by task (Current) and Add stage time; Finish folds the op
// into the per-stage histograms and, over the threshold, the slow
// ring. A nil *Tracer is a valid no-op tracer — the simulator and
// benches that don't serve an admin endpoint pass nil and every
// method returns immediately.
type Tracer struct {
	k         sched.Kernel
	threshold time.Duration
	total     *stats.LogHistogram
	stage     [numStages]*stats.LogHistogram
	slow      *stats.Counter

	mu     sync.Mutex
	byTask map[sched.Task]*Op
	ring   [slowRingSize]SlowOp
	ringN  uint64 // ops ever written to the ring
}

// NewTracer returns a tracer on kernel k capturing ops slower than
// threshold (DefaultSlowThreshold if <= 0) in the slow ring.
func NewTracer(k sched.Kernel, threshold time.Duration) *Tracer {
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	tr := &Tracer{
		k:         k,
		threshold: threshold,
		total:     stats.NewLatencyHistogram("trace.total"),
		slow:      stats.NewCounter("trace.slow"),
		byTask:    make(map[sched.Task]*Op),
	}
	for _, s := range Stages() {
		tr.stage[s] = stats.NewLatencyHistogram("trace.stage." + s.String())
	}
	return tr
}

// Begin starts a traced op named name that entered the system at
// start (admission time, so the total includes the pipeline wait).
func (tr *Tracer) Begin(name string, start sched.Time) *Op {
	if tr == nil {
		return nil
	}
	return &Op{Name: name, Start: start}
}

// Bind associates op with task t so the layers below can find it.
func (tr *Tracer) Bind(t sched.Task, op *Op) {
	if tr == nil || op == nil {
		return
	}
	tr.mu.Lock()
	tr.byTask[t] = op
	tr.mu.Unlock()
}

// Unbind removes t's op association.
func (tr *Tracer) Unbind(t sched.Task) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	delete(tr.byTask, t)
	tr.mu.Unlock()
}

// Current returns the op bound to t, or nil.
func (tr *Tracer) Current(t sched.Task) *Op {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	op := tr.byTask[t]
	tr.mu.Unlock()
	return op
}

// Now returns the tracer's clock reading (kernel time). Callers
// compute stage durations as differences of these. Safe on nil (0).
func (tr *Tracer) Now() sched.Time {
	if tr == nil {
		return 0
	}
	return tr.k.Now()
}

// Finish completes op at end: per-stage histograms absorb the
// breakdown and ops over the threshold enter the slow ring.
func (tr *Tracer) Finish(op *Op, end sched.Time) {
	if tr == nil || op == nil {
		return
	}
	total := time.Duration(end - op.Start)
	if total < 0 {
		total = 0
	}
	tr.total.Observe(total)
	for _, s := range Stages() {
		tr.stage[s].Observe(op.stage[s])
	}
	if total < tr.threshold {
		return
	}
	tr.slow.Inc()
	so := SlowOp{Name: op.Name, Start: op.Start, Total: total, Stages: op.stage}
	tr.mu.Lock()
	tr.ring[tr.ringN%slowRingSize] = so
	tr.ringN++
	tr.mu.Unlock()
}

// StageHist returns the histogram for stage s.
func (tr *Tracer) StageHist(s Stage) *stats.LogHistogram {
	if tr == nil {
		return nil
	}
	return tr.stage[s]
}

// Slow snapshots the slow ring, newest first.
func (tr *Tracer) Slow() []SlowOp {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	n := tr.ringN
	ring := tr.ring
	tr.mu.Unlock()
	count := int(n)
	if count > slowRingSize {
		count = slowRingSize
	}
	out := make([]SlowOp, 0, count)
	for i := 1; i <= count; i++ {
		out = append(out, ring[(n-uint64(i))%slowRingSize])
	}
	return out
}

// RenderSlow renders the slow-op log as text, newest first, with the
// per-stage split — the body of /statusz?slow=1.
func (tr *Tracer) RenderSlow() string {
	if tr == nil {
		return "slow-op log: tracing disabled\n"
	}
	ops := tr.Slow()
	var b strings.Builder
	fmt.Fprintf(&b, "slow-op log: threshold=%v captured=%d total-slow=%d\n",
		tr.threshold, len(ops), tr.slow.Value())
	for _, so := range ops {
		fmt.Fprintf(&b, "  t=%-12v %-10s total=%-10v", time.Duration(so.Start).Round(time.Millisecond), so.Name, so.Total.Round(time.Microsecond))
		for _, s := range Stages() {
			fmt.Fprintf(&b, " %s=%-10v", s, so.Stages[s].Round(time.Microsecond))
		}
		fmt.Fprintf(&b, " other=%v\n", so.Other().Round(time.Microsecond))
	}
	return b.String()
}

// Register wires the tracer's histograms and slow counter into reg
// under the pfs_op_* families.
func (tr *Tracer) Register(reg *Registry) {
	if tr == nil || reg == nil {
		return
	}
	reg.AddDurationHistogram("pfs_op_seconds",
		"End-to-end latency of traced operations (admission to reply).", nil, tr.total)
	stages := Stages()
	sort.Slice(stages, func(i, j int) bool { return stages[i].String() < stages[j].String() })
	for _, s := range stages {
		reg.AddDurationHistogram("pfs_op_stage_seconds",
			"Per-stage latency breakdown of traced operations.",
			Labels{"stage": s.String()}, tr.stage[s])
	}
	reg.AddCounter("pfs_op_slow_total",
		"Traced operations slower than the slow-op threshold.", nil, tr.slow)
}
