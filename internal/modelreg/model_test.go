package modelreg

import (
	"path/filepath"
	"testing"
)

func TestSaveLoadFileRoundtrip(t *testing.T) {
	cl := trainSynthetic(t, 1)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveFile(path, cl); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	m, err := LoadFile(path, DefaultParams(), 42)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	// The artifact round-trips to the same compatibility hash: load is
	// byte-faithful for everything serving-relevant.
	want, err := HashClassifier(cl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash != want {
		t.Fatalf("loaded hash %s != saved classifier hash %s", m.Hash, want)
	}
	if m.Source != "file:"+path || m.LoadedAtUnixNS != 42 {
		t.Fatalf("Source/LoadedAt = %q/%d", m.Source, m.LoadedAtUnixNS)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json"), DefaultParams(), 0); err == nil {
		t.Fatal("LoadFile(missing): want error")
	}
}
