package experiment

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// A generated block of EXPERIMENTS.md sits between a begin and an end
// marker line carrying its name: an experiment's, or SummaryBlock.
var blockRE = regexp.MustCompile(`(?s)(<!-- begin generated: (\S+) -->\n)(.*?)(<!-- end generated: (\S+) -->)`)

// SummaryBlock names the block that states the snapshot's source and the
// verdict tally.
const SummaryBlock = "snapshot"

// Block renders one experiment's generated block: its tables, then one
// verdict line per shape.
func Block(name string, tables []Table) (string, []Judgement, error) {
	judged, err := Judge(name, tables)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString(Markdown(tables))
	if len(judged) > 0 {
		b.WriteByte('\n')
	}
	for _, j := range judged {
		b.WriteString(j.Line() + "\n")
	}
	return b.String(), judged, nil
}

// Rewrite replaces the body of every generated block of doc with
// blocks[name] and returns the names whose body changed; text outside
// the markers is left alone. A block the document has but blocks lacks,
// a block of blocks the document lacks (or never ends), and markers that
// do not pair up are errors: the document and the snapshot must cover the
// same experiments.
func Rewrite(doc string, blocks map[string]string) (string, []string, error) {
	var changed []string
	var err error
	seen := make(map[string]bool, len(blocks))
	out := blockRE.ReplaceAllStringFunc(doc, func(match string) string {
		m := blockRE.FindStringSubmatch(match)
		name, old := m[2], m[3]
		body, ok := blocks[name]
		switch {
		case m[5] != name:
			err = fmt.Errorf("generated block %q ends at the marker of %q", name, m[5])
		case !ok:
			err = fmt.Errorf("generated block %q: the snapshot records no such experiment", name)
		case seen[name]:
			err = fmt.Errorf("generated block %q appears twice", name)
		case old != body:
			changed = append(changed, name)
		}
		seen[name] = true
		return m[1] + body + m[4]
	})
	if err != nil {
		return "", nil, err
	}
	var missing []string
	for name := range blocks {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", nil, fmt.Errorf("no generated block (begin and end marker) for %q", missing)
	}
	return out, changed, nil
}
