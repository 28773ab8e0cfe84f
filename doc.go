// Package repro is a Go reproduction of "Cut-and-Paste file-systems:
// integrating simulators and file-systems" (Bosch & Mullender,
// USENIX 1996): a component library from which both a trace-driven
// file-system simulator (Patsy, internal/patsy) and an on-line file
// system (PFS, internal/pfs) are instantiated from the same
// scheduler, cache, storage-layout, device-driver and client-
// interface components.
//
// See README.md for the architecture tour (the log's on-disk format —
// two-ended segments, summaries committed in place by write barriers —
// is in the internal/lfs package comment). The root bench_test.go
// regenerates every figure of the paper's evaluation.
package repro
