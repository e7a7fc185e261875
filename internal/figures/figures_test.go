package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// forEachDoc calls check with the text of each top-level document named.
func forEachDoc(t *testing.T, check func(doc string, text []byte), docs ...string) {
	t.Helper()
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		check(doc, text)
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
	forEachDoc(t, func(doc string, text []byte) {
		for _, m := range cite.FindAllSubmatch(text, -1) {
			if !ids[string(m[1])] {
				t.Errorf("%s cites -fig %s, which is not in the catalogue", doc, m[1])
			}
		}
	}, "README.md", "DESIGN.md", "EXPERIMENTS.md")
}

// TestDocsCitePathsThatExist: every in-repo path README.md and DESIGN.md
// cite exists, so a deleted package or file cannot linger in them. A
// `:line` suffix is dropped, and a trailing `.Name` reads as the package
// (`internal/stats.Hist` is `internal/stats`). EXPERIMENTS.md is left
// out: its profiles name packages of the Go runtime.
func TestDocsCitePathsThatExist(t *testing.T) {
	cite := regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|serve|benchmark|scripts)/[\w./-]*)`)
	ident := regexp.MustCompile(`\.[A-Z]\w*$`)
	forEachDoc(t, func(doc string, text []byte) {
		for _, m := range cite.FindAllSubmatch(text, -1) {
			path := ident.ReplaceAllString(strings.TrimRight(string(m[1]), "."), "")
			if _, err := os.Stat(filepath.Join("..", "..", path)); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
	}, "README.md", "DESIGN.md")
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
