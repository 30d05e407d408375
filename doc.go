// Package redbud is the root of the MiF reproduction: a pure-Go,
// simulation-backed implementation of the Redbud block-based parallel file
// system and the two MiF techniques — on-demand preallocation and embedded
// directories — from "MiF: Mitigating the intra-file Fragmentation in
// parallel file system" (ICPP 2011).
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory); internal/experiment defines every figure and table of the
// paper's evaluation once, cmd/mifbench prints and records them, and
// bench_test.go times the same definitions on the host.
package redbud
