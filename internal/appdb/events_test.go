package appdb

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/appstore"
)

func TestEventsInMemory(t *testing.T) {
	db := New()
	if err := db.PutEvent(Event{Type: "model_rollback", AtUnixNS: 1, Detail: map[string]string{"from": "m1"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEvent(Event{Type: "scrub_repair", AtUnixNS: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEvent(Event{}); err == nil {
		t.Error("typeless event accepted")
	}
	evs, err := db.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != "model_rollback" || evs[0].Detail["from"] != "m1" {
		t.Fatalf("events = %+v", evs)
	}
	if evs, _ = db.Events(1); len(evs) != 1 || evs[0].Type != "scrub_repair" {
		t.Fatalf("limited events = %+v", evs)
	}
}

func TestEventsPersistAndSkipTornLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	db, err := Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.PutEvent(Event{Type: "scrub_repair", AtUnixNS: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn trailing line.
	f, err := os.OpenFile(filepath.Join(path, "events.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"at_unix_ns":99,"ty`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	evs, err := db2.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("events after reopen = %+v, want 3 (torn line skipped)", evs)
	}
	if evs[2].AtUnixNS != 2 {
		t.Errorf("last event = %+v", evs[2])
	}

	// The first event written after the tear must not be glued onto the
	// fragment and skipped with it.
	if err := db2.PutEvent(Event{Type: "model_rollback", AtUnixNS: 100}); err != nil {
		t.Fatal(err)
	}
	evs, err = db2.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 || evs[3].Type != "model_rollback" || evs[3].AtUnixNS != 100 {
		t.Fatalf("events after appending past the tear = %+v, want the new model_rollback last", evs)
	}
}
