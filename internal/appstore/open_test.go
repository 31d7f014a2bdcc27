package appstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segFiles lists the store's segment files.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "store-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestHeaderOnlyV1SegmentDeletedAtOpen is the downgrade leftover: an
// older daemon that set a version-2 segment aside starts a version-1
// one, and this daemon never resumes a version-1 segment. A newest
// segment holding only that header must be deleted at open, the rows
// must stay the same, and further opens must not add files.
func TestHeaderOnlyV1SegmentDeletedAtOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{})
	for i := 0; i < 12; i++ {
		r := pageRecord(i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := s.Scan(Filter{}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	before := segFiles(t, dir)
	if len(before) != 1 {
		t.Fatalf("segments before the downgrade leftover: %v", before)
	}
	leftover := segFormat.Path(dir, 2)
	if err := os.WriteFile(leftover, segFormat.EncodeHeader(segVersionV1, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var files int
	for open := 0; open < 3; open++ {
		s := openTest(t, dir, Options{})
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Fatalf("open %d: header-only version-1 segment still there (%v)", open, err)
		}
		got, _, err := s.Scan(Filter{}, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d: rows changed:\n got  %+v\n want %+v", open, got, want)
		}
		s.Close()
		n := len(segFiles(t, dir))
		if open > 0 && n != files {
			t.Fatalf("open %d: %d segment files, the open before left %d", open, n, files)
		}
		files = n
	}
}

// TestOpenSizesEntryArray: open sizes the entry array from the bytes
// on disk, so its capacity stays within 1.25x of the record count
// across several segments. 2,000 records lies just past one of
// append's growth steps: an array grown from empty holds 2,633.
func TestOpenSizesEntryArray(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{NoFsync: true, SegmentBytes: 64 << 10})
	const n = 2000
	for i := 0; i < n; i++ {
		r := pageRecord(i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := openTest(t, dir, Options{NoFsync: true, SegmentBytes: 64 << 10})
	if got := len(s2.entries); got != n {
		t.Fatalf("%d entries, want %d", got, n)
	}
	if st := s2.Stats(); st.Segments < 3 {
		t.Fatalf("%d segments, want several", st.Segments)
	}
	if c := cap(s2.entries); c > n*5/4 {
		t.Errorf("entry array capacity %d for %d records, want at most %d", c, n, n*5/4)
	}
}
