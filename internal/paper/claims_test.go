package paper

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// A claim is one qualitative §6 result that an Experiments entry must
// reproduce at Short scale and seed 1. Each of its chains names
// metrics that must rise in order: every one at least (1 + tolerance)
// times the one before, so tolerance 0 lets neighbours tie.
type claim struct {
	claim, section, entry string
	chains                [][]string
	tolerance             float64
}

var claims = []claim{
	{
		"median convergence time rises with the price-update interval",
		"§6.2, Fig. 6b", "fig6b",
		[][]string{{"median-ms@30us", "median-ms@60us", "median-ms@128us"}},
		0.25,
	},
	{
		"sampling every inter-packet gap instead of packet pairs converges no faster and leaves no fewer events unconverged",
		"§4.1, ablation", "ablations",
		[][]string{{"pairs/median-ms", "all-gaps/median-ms"}, {"pairs/unconverged", "all-gaps/unconverged"}},
		0,
	},
	{
		"two pooled bandwidth-function flows: flow 1 gets more than flow 2 before the capacity step, and both rise after it",
		"§6.3, Fig. 10", "fig10",
		[][]string{
			{"flow2-before-Gbps", "flow1-before-Gbps"},
			{"flow1-before-Gbps", "flow1-after-Gbps"},
			{"flow2-before-Gbps", "flow2-after-Gbps"},
		},
		0.25,
	},
}

// TestPaperClaims runs each claim's experiment and checks its chains;
// with -v it prints the table as a scorecard (make paper).
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs packet-engine experiments (about 8 s)")
	}
	// The ablations row reads the shipped and all-gaps runs only. Each
	// variant runs alone from the same config, so leaving out the other
	// five (14 s, 6 of them multiqueue8's) moves no bit of these two.
	all := ablationVariants
	defer func() { ablationVariants = all }()
	ablationVariants = all[:2]
	runs := map[string]Metrics{}
	for _, e := range Experiments {
		for _, c := range claims {
			if c.entry == e.ID && runs[e.ID] == nil {
				runs[e.ID] = e.Run(Env{Writer: io.Discard}, Short, 1)
			}
		}
	}
	for _, c := range claims {
		m, ok := runs[c.entry]
		if !ok {
			t.Fatalf("%s: no experiment %q", c.claim, c.entry)
		}
		verdict, measured := "holds", []string{}
		for _, chain := range c.chains {
			var vals []string
			for i, name := range chain {
				v, ok := m[name]
				if !ok {
					t.Fatalf("%s: %s reports no metric %q", c.claim, c.entry, name)
				}
				vals = append(vals, fmt.Sprintf("%s %.3g", name, v))
				if i == 0 {
					continue
				}
				if least := m[chain[i-1]] * (1 + c.tolerance); v < least {
					verdict = "FAILS"
					t.Errorf("%s (%s): %s = %.4g, want ≥ %s × %.2f = %.4g",
						c.claim, c.section, name, v, chain[i-1], 1+c.tolerance, least)
				}
			}
			measured = append(measured, strings.Join(vals, " ≤ "))
		}
		t.Logf("%-5s | %s | %s at Short | %s | tolerance %.2f | %s",
			verdict, c.section, c.entry, strings.Join(measured, "; "), c.tolerance, c.claim)
	}
}
