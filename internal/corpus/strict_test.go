package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/slolab"
)

// TestStrictDecodeEntryPoints feeds every strict JSON entry point a valid
// document, then the same document with an unknown field or trailing data.
// The valid document must load; every mutation must fail, wrapped in the
// entry point's sentinel where it has one.
func TestStrictDecodeEntryPoints(t *testing.T) {
	pool := func(b []byte) error {
		path := filepath.Join(t.TempDir(), "sessions.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := slolab.LoadSessionPool(path)
		return err
	}
	entries := []struct {
		name, file string // file "" parses the inline session spec below
		parse      func([]byte) error
		sentinel   error // nil: decode errors carry no sentinel
	}{
		{"scenario.Parse", "../../scenarios/eq22-snapshot.json", func(b []byte) error { _, err := scenario.Parse(b); return err }, nil},
		{"slolab.Parse", "../../scenarios/slo/steady-baseline.json", func(b []byte) error { _, err := slolab.Parse(b); return err }, nil},
		{"corpus.ParsePlan", "../../plans/corpus-smoke.json", func(b []byte) error { _, err := ParsePlan(b); return err }, ErrBadPlan},
		{"slolab.LoadSessionPool", "../../scenarios/corpus-smoke/sessions.json", pool, nil},
		{"service.ParseSpec", "", func(b []byte) error { _, err := service.ParseSpec(bytes.NewReader(b)); return err }, service.ErrBadSpec},
	}
	mutations := map[string]func([]byte) []byte{
		// The field lands in the first object: the top-level document, or
		// the first template of the pool array.
		"unknown-field":    func(b []byte) []byte { return bytes.Replace(b, []byte("{"), []byte(`{"no_such_field": 1, `), 1) },
		"second-document":  func(b []byte) []byte { return append(bytes.Clone(b), ` {"name":"second"}`...) },
		"trailing-garbage": func(b []byte) []byte { return append(bytes.Clone(b), " garbage"...) },
		"stray-brace":      func(b []byte) []byte { return append(bytes.Clone(b), "}"...) },
	}
	for _, e := range entries {
		doc := []byte(`{"model": {"type": "eq22"}, "seed": 1, "blocks": 4}` + "\n")
		if e.file != "" {
			var err error
			if doc, err = os.ReadFile(e.file); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.parse(doc); err != nil {
			t.Fatalf("%s rejected its valid document: %v", e.name, err)
		}
		for name, mutate := range mutations {
			err := e.parse(mutate(doc))
			if err == nil || (e.sentinel != nil && !errors.Is(err, e.sentinel)) {
				t.Errorf("%s/%s: err = %v, want a rejection wrapping %v", e.name, name, err, e.sentinel)
			}
		}
	}
}
