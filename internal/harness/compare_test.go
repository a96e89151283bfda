package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func mkReport(id string, pts ...Point) *Report {
	return &Report{ID: id, Sections: []Section{{Title: "s", Points: pts}}}
}

func TestCompareReportsClassifiesDeltas(t *testing.T) {
	old := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "B", Threads: 2, Throughput: 100},
		Point{Algo: "C", Threads: 2, Throughput: 100},
	)}
	new := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 90},  // -10%: regression
		Point{Algo: "B", Threads: 2, Throughput: 104}, // +4%: within threshold
		Point{Algo: "C", Threads: 2, Throughput: 120}, // +20%: improvement
	)}
	c := CompareReports(old, new, 0.05)
	if c.OK() {
		t.Fatal("expected a regression")
	}
	if len(c.Regressions) != 1 || c.Regressions[0].Algo != "A" {
		t.Fatalf("regressions = %+v, want exactly A", c.Regressions)
	}
	if got := c.Regressions[0].Delta; got > -0.09 || got < -0.11 {
		t.Fatalf("regression delta = %v, want about -0.10", got)
	}
	if len(c.Improvements) != 1 || c.Improvements[0].Algo != "C" {
		t.Fatalf("improvements = %+v, want exactly C", c.Improvements)
	}
	if len(c.Unchanged) != 1 || c.Unchanged[0].Algo != "B" {
		t.Fatalf("unchanged = %+v, want exactly B", c.Unchanged)
	}
}

func TestCompareReportsIdenticalSetsPass(t *testing.T) {
	reports := []*Report{mkReport("fig",
		Point{Algo: "A", Threads: 2, Throughput: 100},
		Point{Algo: "A", Threads: 4, Throughput: 0}, // zero throughput must not divide by zero
	)}
	c := CompareReports(reports, reports, 0)
	if !c.OK() || len(c.Unchanged) != 2 {
		t.Fatalf("identical sets: OK=%v unchanged=%d, want pass with 2 unchanged", c.OK(), len(c.Unchanged))
	}
}

func TestCompareReportsMissingAndExtra(t *testing.T) {
	old := []*Report{
		mkReport("fig",
			Point{Algo: "A", Threads: 2, Throughput: 100},
			Point{Algo: "B", Threads: 2, Throughput: 100},
		),
		mkReport("wall", Point{Algo: "A", Threads: 2, Throughput: 100}),
	}
	for _, tc := range []struct {
		name    string
		new     []*Report
		ok      bool
		missing string // substring of the one missing point, or ""
		extra   string // substring of the one extra point, or ""
		skipped []string
	}{
		{
			// A point dropped from an experiment the new run contains
			// fails the gate.
			name: "point dropped",
			new: []*Report{
				mkReport("fig",
					Point{Algo: "A", Threads: 2, Throughput: 100},
					Point{Algo: "C", Threads: 2, Throughput: 100},
				),
				mkReport("wall", Point{Algo: "A", Threads: 2, Throughput: 100}),
			},
			missing: "B@2",
			extra:   "C@2",
		},
		{
			// A whole experiment absent from the new run (the wall-clock
			// sections -exp all leaves out) is listed but passes.
			name: "experiment absent",
			new: []*Report{mkReport("fig",
				Point{Algo: "A", Threads: 2, Throughput: 100},
				Point{Algo: "B", Threads: 2, Throughput: 100},
			)},
			ok:      true,
			skipped: []string{"wall"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := CompareReports(old, tc.new, 0.05)
			if c.OK() != tc.ok {
				t.Fatalf("OK = %v, want %v (missing %v)", c.OK(), tc.ok, c.Missing)
			}
			check := func(what string, got []string, want string) {
				if want == "" {
					if len(got) != 0 {
						t.Fatalf("%s = %v, want none", what, got)
					}
					return
				}
				if len(got) != 1 || !strings.Contains(got[0], want) {
					t.Fatalf("%s = %v, want %s", what, got, want)
				}
			}
			check("missing", c.Missing, tc.missing)
			check("extra", c.Extra, tc.extra)
			if !slices.Equal(c.MissingExperiments, tc.skipped) {
				t.Fatalf("missing experiments = %v, want %v", c.MissingExperiments, tc.skipped)
			}
		})
	}
}

func TestCompareFormatMentionsRegression(t *testing.T) {
	old := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 100})}
	new := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 50})}
	var buf bytes.Buffer
	CompareReports(old, new, 0.05).Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "regressions") || !strings.Contains(out, "-50.0%") {
		t.Fatalf("formatted comparison missing regression details:\n%s", out)
	}
}

func TestReadJSONRoundTripsWriteJSON(t *testing.T) {
	reports := []*Report{mkReport("fig", Point{Algo: "A", Threads: 2, Throughput: 123.5, Ops: 7})}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "fig" || got[0].Sections[0].Points[0].Throughput != 123.5 {
		t.Fatalf("round trip mismatch: %+v", got[0])
	}
}
