package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

var testFormat = Format{
	Names:      Names{Prefix: "t-", Suffix: ".seg"},
	Magic:      [4]byte{'T', 'E', 'S', 'T'},
	Version:    2,
	Extra:      map[uint32]int{1: 0, 2: 4},
	MaxPayload: 1 << 10,
}

// buildSegment writes a version-2 segment holding one frame per payload
// and returns its path and bytes.
func buildSegment(t testing.TB, payloads ...string) (string, []byte) {
	t.Helper()
	w := Writer{Format: &testFormat, Dir: t.TempDir(), Extra: []byte("xtra")}
	if err := w.Create(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		buf, start := BeginFrame(nil)
		if err := w.Write(EndFrame(append(buf, p...), start)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := testFormat.Path(w.Dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestWalkStopsAtOrStepsOverBadFrames(t *testing.T) {
	path, data := buildSegment(t, "one", "two", "three")
	second := int64(12 + FrameSize + 3) // header + first frame
	data[second+FrameSize] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	sc, err := testFormat.Walk(path, 0, func(_ int64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Torn || sc.Frames != 2 || !reflect.DeepEqual(sc.Bad, []int64{second}) || sc.End != int64(len(data)) || sc.Intact != sc.End {
		t.Fatalf("walk = %+v, want two frames and one bad at %d", sc, second)
	}
	if !reflect.DeepEqual(got, []string{"one", "three"}) {
		t.Errorf("walk delivered %v", got)
	}
	if string(sc.Header.Extra) != "xtra" || sc.Header.Version != 2 {
		t.Errorf("header = %+v", sc.Header)
	}

	// A callback's Corrupt verdict counts like a CRC failure; any other
	// error aborts the walk.
	sc, err = testFormat.Walk(path, 0, func(_ int64, p []byte) error {
		if string(p) == "one" {
			return Corrupt(errors.New("undecodable"))
		}
		return nil
	})
	if err != nil || len(sc.Bad) != 2 || sc.Frames != 1 {
		t.Errorf("corrupt verdict walk = %+v, %v", sc, err)
	}
	// Intact stops short of bad frames at the end: a cut there keeps
	// every intact frame.
	sc, err = testFormat.Walk(path, 0, func(_ int64, p []byte) error {
		if string(p) == "three" {
			return Corrupt(errors.New("undecodable"))
		}
		return nil
	})
	if err != nil || sc.Frames != 1 || sc.End != int64(len(data)) || sc.Intact != second {
		t.Errorf("walk with a bad last frame = %+v, %v; want it intact to %d only", sc, err, second)
	}
	boom := errors.New("boom")
	if _, err := testFormat.Walk(path, 0, func(int64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("callback error = %v, want boom", err)
	}
}

func TestWriterAbandonCutsBackAndStartsFresh(t *testing.T) {
	w := Writer{Format: &testFormat, Dir: t.TempDir()}
	if err := w.Create(1); err != nil {
		t.Fatal(err)
	}
	frame := func(p string) []byte {
		buf, start := BeginFrame(nil)
		return EndFrame(append(buf, p...), start)
	}
	if err := w.Write(frame("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := w.Synced()
	if err := w.Write(frame("lost")); err != nil {
		t.Fatal(err)
	}
	if !w.Dirty() || w.Size() == synced {
		t.Fatalf("unsynced write not tracked: size %d synced %d", w.Size(), synced)
	}
	if err := w.Abandon(w.Synced(), 2); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 2 {
		t.Errorf("active segment after abandon = %d, want 2", w.Seq())
	}
	var got []string
	sc, err := testFormat.Walk(testFormat.Path(w.Dir, 1), 0, func(_ int64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil || sc.Torn || sc.Size != synced || !reflect.DeepEqual(got, []string{"durable"}) {
		t.Errorf("abandoned segment = %+v %v (%v), want only the synced frame", sc, got, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairQuarantinesAndKeepsIntactFrames(t *testing.T) {
	path, data := buildSegment(t, "a", "bb", "ccc")
	data[12+FrameSize] ^= 0x10 // first payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, size, err := testFormat.Repair(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Bad) != 1 || sc.Frames != 2 {
		t.Errorf("repair walk = %+v", sc)
	}
	if q, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(q, data) {
		t.Errorf("quarantined original differs or is missing (%v)", err)
	}
	fixed, err := testFormat.Walk(path, 0, nil)
	if err != nil || fixed.Torn || fixed.Frames != 2 || fixed.Size != size || string(fixed.Header.Extra) != "xtra" {
		t.Errorf("repaired segment = %+v (%v), size %d", fixed, err, size)
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "v1"); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write = %v, want boom", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "v1" {
		t.Errorf("target after failed write = %q (%v), want v1", b, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("temp file left behind: %v", ents)
	}
}

func TestPickCyclesAndWraps(t *testing.T) {
	seqs := []uint64{2, 3, 5, 8}
	var cursor uint64
	var order []uint64
	for i := 0; i < 6; i++ {
		var picks []uint64
		picks, cursor = Pick(seqs, cursor, 1)
		order = append(order, picks...)
	}
	if want := []uint64{2, 3, 5, 8, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("picks = %v, want %v", order, want)
	}
	if picks, _ := Pick(seqs, 4, 10); !reflect.DeepEqual(picks, []uint64{5, 8}) {
		t.Errorf("wide pick = %v", picks)
	}
	if picks, next := Pick(nil, 7, 1); picks != nil || next != 7 {
		t.Errorf("empty pick = %v, %d", picks, next)
	}
}

// FuzzSeglogScan walks arbitrary segment bytes: nothing panics, every
// frame delivered matches its CRC, and after Cut the segment re-walks
// to the same frames and ends on its last intact one, or, when its
// header is unusable, is quarantined whole.
func FuzzSeglogScan(f *testing.F) {
	_, good := buildSegment(f, "alpha", "beta", "gamma")
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:10])
	f.Add([]byte{})
	flipped := bytes.Clone(good)
	flipped[30] ^= 0xFF
	f.Add(flipped)
	table := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(off int64, p []byte) error {
			fh := data[off : off+FrameSize]
			if int(binary.LittleEndian.Uint32(fh)) != len(p) || binary.LittleEndian.Uint32(fh[4:]) != crc32.Checksum(p, table) {
				t.Fatalf("frame at %d delivered with a mismatched length or CRC", off)
			}
			if !bytes.Equal(data[off+FrameSize:off+FrameSize+int64(len(p))], p) {
				t.Fatalf("frame at %d delivered bytes that are not on disk", off)
			}
			return nil
		}
		sc, err := testFormat.Walk(path, 0, check)
		if err != nil {
			t.Fatal(err)
		}
		q, err := testFormat.Cut(path, sc)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Header.Size == 0 {
			if _, err := os.Stat(path); q != path+".corrupt" || !os.IsNotExist(err) {
				t.Fatalf("unusable header: quarantined as %q, original stat %v", q, err)
			}
			return
		}
		again, err := testFormat.Walk(path, 0, check)
		if err != nil {
			t.Fatal(err)
		}
		kept := slices.DeleteFunc(slices.Clone(sc.Bad), func(off int64) bool { return off >= sc.Intact })
		if again.NeedsCut() || again.Torn || again.Intact != sc.Intact || again.Frames != sc.Frames || !slices.Equal(again.Bad, kept) {
			t.Fatalf("walk found %d frames intact to %d, bad %v; after the cut it finds %d intact to %d, bad %v (torn %v)",
				sc.Frames, sc.Intact, sc.Bad, again.Frames, again.Intact, again.Bad, again.Torn)
		}
	})
}
