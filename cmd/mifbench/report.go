package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"redbud/internal/benchsnap"
	"redbud/internal/experiment"
)

// reportBlocks renders every generated block of EXPERIMENTS.md from a
// snapshot: one per recorded experiment (tables and verdict lines) and
// the summary block naming the snapshot's host and the verdict tally.
func reportBlocks(snap *benchsnap.Snapshot) (map[string]string, error) {
	blocks := make(map[string]string, len(snap.Experiments)+1)
	tally := make(map[experiment.Verdict]int)
	for _, e := range snap.Experiments {
		body, judged, err := experiment.Block(e.Name, e.Results)
		if err != nil {
			return nil, err
		}
		blocks[e.Name] = body
		for _, j := range judged {
			tally[j.Verdict]++
		}
	}
	blocks[experiment.SummaryBlock] = fmt.Sprintf(
		"Every table and verdict line below is generated from the committed `BENCH.json`\n"+
			"(`mifbench -bench-json BENCH.json all`, scale %g, recorded on %v);\n"+
			"re-running it on any host reproduces the numbers exactly. Scoreboard: %d ✔, %d ◐, %d ✘.\n",
		snap.Scale, snap.Host, tally[experiment.Reproduced], tally[experiment.Partial], tally[experiment.NotReproduced])
	return blocks, nil
}

// runReport implements `mifbench report <BENCH.json> <EXPERIMENTS.md>`:
// rewrite the document's generated blocks from the snapshot's results.
// Returns 2 on usage errors and on inputs it cannot use.
func runReport(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: mifbench report <BENCH.json> <EXPERIMENTS.md>\n")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "mifbench report: %v\n", err)
		return 2
	}
	snap, err := readSnapshot(args[0])
	if err != nil {
		return fail(err)
	}
	blocks, err := reportBlocks(snap)
	if err != nil {
		return fail(err)
	}
	doc, err := os.ReadFile(args[1])
	if err != nil {
		return fail(err)
	}
	out, changed, err := experiment.Rewrite(string(doc), blocks)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", args[1], err))
	}
	if len(changed) == 0 {
		fmt.Fprintf(stdout, "%s: up to date with %s\n", args[1], args[0])
		return 0
	}
	if err := os.WriteFile(args[1], []byte(out), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s: rewrote %s from %s\n", args[1], strings.Join(changed, ", "), args[0])
	return 0
}
