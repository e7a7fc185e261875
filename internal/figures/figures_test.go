package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smoke is the scale the catalogue is rendered at here. Figs 10, 11 and
// the ablation keep their fixed horizons whatever the scale, and take
// most of this package's time.
var smoke = Options{Nodes: 4, Big: 4, Dur: 2 * time.Millisecond, Long: 20 * time.Millisecond, Seed: 1}

func TestCatalogueSorted(t *testing.T) {
	for i := 1; i < len(All); i++ {
		if All[i-1].ID >= All[i].ID {
			t.Errorf("%q follows %q: ids must be unique and sorted as strings", All[i].ID, All[i-1].ID)
		}
	}
}

// TestDocsCiteCatalogueFigures: every `-fig <id>` the top-level documents
// cite is `all` or a figure of the catalogue, so a deleted figure cannot
// linger in them.
func TestDocsCiteCatalogueFigures(t *testing.T) {
	ids := map[string]bool{"all": true}
	for _, f := range All {
		ids[f.ID] = true
	}
	cite := regexp.MustCompile(`-fig (\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			if !ids[string(m[1])] {
				t.Errorf("%s cites -fig %s, which is not in the catalogue", doc, m[1])
			}
		}
	}
}

func TestRenderEveryFigure(t *testing.T) {
	for _, f := range All {
		t.Run(f.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := f.Render(&buf, smoke); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
		})
	}
}

// TestRenderIndependentOfWorkers: Fig 12 renders to the same bytes on one
// simulation worker as on two.
func TestRenderIndependentOfWorkers(t *testing.T) {
	render := func(workers int) []byte {
		o := smoke
		o.Workers = workers
		var buf bytes.Buffer
		for _, f := range All {
			if f.ID == "12" {
				if err := f.Render(&buf, o); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	one, two := render(1), render(2)
	if len(one) == 0 || !bytes.Equal(one, two) {
		t.Errorf("Fig 12 on 1 worker:\n%s\non 2 workers:\n%s", one, two)
	}
}
