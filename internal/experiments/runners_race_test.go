//go:build race

// Only the chaos and connscale runners reach a goroutine: their functional
// halves (functional.go) drive real NICs, servers and a lossy transport. The
// other runners are single-goroutine discrete-event code with nothing for
// the race detector to check. The plain pass runs every runner once, in
// cmd/daggerbench's TestQuickGolden, which diffs each output line; that
// golden is skipped under -race, so this test puts the concurrent runners
// through the race detector instead.

package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The goroutine-starting runners run to completion in quick mode and
// produce output mentioning their table/figure.
func TestAllRunnersSmoke(t *testing.T) {
	for _, id := range []string{"chaos", "connscale"} {
		var buf bytes.Buffer
		if err := Registry()[id](&buf, true); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		out := buf.String()
		if len(out) < 40 {
			t.Errorf("%s: suspiciously short output %q", id, out)
		}
		if !strings.Contains(out, "Figure") && !strings.Contains(out, "Table") && !strings.Contains(out, "§") {
			t.Errorf("%s: output does not identify its artifact", id)
		}
	}
}
