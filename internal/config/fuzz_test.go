package config

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary bytes to Load, which decodes and then
// normalizes. It must return a scenario or an error, never panic or
// hang, and a scenario it accepts is already normalized: a second
// Normalize succeeds and leaves every field as it was. The corpus is
// seeded with every checked-in example scenario.
func FuzzScenarioLoad(f *testing.F) {
	files, err := filepath.Glob(filepath.FromSlash("../../examples/scenarios/*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example scenarios to seed from (%v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// An unknown rack on the largest fat-tree, on the largest leaf-spine,
	// on a leaf-spine with more leaves than that fat-tree has hosts, and
	// on a k whose k²/2 overflows int (the last two rejected up front).
	f.Add([]byte(`{"topology":{"kind":"fattree","k":128},"jobs":[{"profile":"gpt2","src_rack":"x","dst_rack":"x"}]}`))
	f.Add([]byte(`{"topology":{"kind":"leafspine","leaves":1024,"spines":1024,"hosts_per_leaf":512},"jobs":[{"profile":"gpt2","src_rack":"x","dst_rack":"x"}]}`))
	f.Add([]byte(`{"topology":{"kind":"leafspine","leaves":4000000,"spines":1,"hosts_per_leaf":1},"jobs":[{"profile":"gpt2","src_rack":"x","dst_rack":"x"}]}`))
	f.Add([]byte(`{"topology":{"kind":"fattree","k":3037000500},"jobs":[{"profile":"gpt2","src_rack":"x","dst_rack":"x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		before, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		if err := s.Normalize(); err != nil {
			t.Fatalf("second Normalize rejects an accepted scenario: %v", err)
		}
		after, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("second Normalize changed the scenario:\n before %s\n after  %s", before, after)
		}
	})
}
