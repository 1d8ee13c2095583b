package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chanspec"
)

// Parse decodes one spec from JSON strictly (chanspec.DecodeStrict), so a
// typo in a tolerance name fails loudly instead of silently disabling a gate.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := chanspec.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses one spec file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir loads every *.json spec in dir (non-recursive), sorted by scenario
// name so every caller sees the same deterministic order. Duplicate names
// are rejected.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var specs []*Spec
	seen := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		s, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate name %q in %s and %s: %w", s.Name, prev, path, ErrBadSpec)
		}
		seen[s.Name] = path
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}
