package seglog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File a Writer needs from its active
// segment. Fault-injection harnesses substitute files that fail writes
// or fsyncs on command.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Writer appends frames to the active segment of one log. It is not
// safe for concurrent use: the owning store serializes every call.
type Writer struct {
	Format *Format
	Dir    string
	// Open creates and reopens segment files; nil means os.OpenFile.
	Open func(name string, flag int, perm os.FileMode) (File, error)
	// Extra is the opaque header extra stamped into new segments.
	Extra []byte

	f      File
	seq    uint64
	size   int64 // bytes written, header included
	synced int64 // bytes the last successful fsync covered
	dirty  bool
}

// Seq returns the active segment's sequence number.
func (w *Writer) Seq() uint64 { return w.seq }

// Size returns the offset the next frame lands at.
func (w *Writer) Size() int64 { return w.size }

// Synced returns the offset the last successful fsync covered.
func (w *Writer) Synced() int64 { return w.synced }

// Dirty reports unsynced bytes in the active segment.
func (w *Writer) Dirty() bool { return w.dirty }

// File returns the active segment's handle, nil when a failed Abandon
// left none. A caller that fsyncs outside its lock syncs through it
// and reports back with MarkSynced.
func (w *Writer) File() File { return w.f }

func (w *Writer) open(seq uint64, flag int) (File, error) {
	path := w.Format.Path(w.Dir, seq)
	if w.Open != nil {
		return w.Open(path, flag, 0o644)
	}
	return os.OpenFile(path, flag, 0o644)
}

// Create starts a fresh active segment seq and writes its header.
func (w *Writer) Create(seq uint64) error {
	f, err := w.open(seq, os.O_CREATE|os.O_EXCL|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("seglog: create segment %d: %w", seq, err)
	}
	hdr := w.Format.EncodeHeader(w.Format.Version, w.Extra)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(w.Format.Path(w.Dir, seq))
		return fmt.Errorf("seglog: write segment %d header: %w", seq, err)
	}
	// Unsynced, but the floor a failed fsync cuts back to: a segment is
	// never cut into its header.
	w.f, w.seq, w.size, w.synced, w.dirty = f, seq, int64(len(hdr)), int64(len(hdr)), true
	return nil
}

// Resume makes the existing segment seq the active one. Its first size
// bytes must be whole frames with nothing after them.
func (w *Writer) Resume(seq uint64, size int64) error {
	f, err := w.open(seq, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("seglog: reopen segment %d: %w", seq, err)
	}
	w.f, w.seq, w.size, w.synced, w.dirty = f, seq, size, size, false
	return nil
}

// Write appends whole frames. After a failure the segment's tail is
// suspect and the caller abandons it.
func (w *Writer) Write(p []byte) error {
	if w.f == nil {
		return fmt.Errorf("seglog: segment %d was abandoned and no fresh one could be opened", w.seq)
	}
	if _, err := w.f.Write(p); err != nil {
		return fmt.Errorf("seglog: append to segment %d: %w", w.seq, err)
	}
	w.size += int64(len(p))
	w.dirty = true
	return nil
}

// Sync fsyncs the active segment if it has unsynced bytes. After a
// failure those bytes may or may not be on disk, and a retried fsync
// can report success without writing them, so the caller must not
// count them durable: it cuts them off with Abandon(Synced(), ...).
func (w *Writer) Sync() error {
	if !w.dirty {
		return nil
	}
	if w.f == nil {
		return fmt.Errorf("seglog: segment %d was abandoned and no fresh one could be opened", w.seq)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("seglog: fsync segment %d: %w", w.seq, err)
	}
	w.synced, w.dirty = w.size, false
	return nil
}

// MarkSynced records that an fsync of segment seq, taken through File,
// covered its first size bytes.
func (w *Writer) MarkSynced(seq uint64, size int64) {
	if seq == w.seq && size >= w.synced {
		w.synced = size
		w.dirty = size < w.size
	}
}

// Rotate syncs and closes the active segment, so a closed segment is
// always fully durable, and starts segment next.
func (w *Writer) Rotate(next uint64) error {
	if err := w.Sync(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("seglog: close segment %d: %w", w.seq, err)
	}
	return w.Create(next)
}

// Abandon retires the active segment after a failed write or fsync: it
// is cut back to keep bytes — Size for the last whole frame, Synced when
// nothing unsynced may survive — synced best-effort and closed, and
// segment next takes over, so later appends start at a known-good
// offset. An error means the cut or the fresh segment failed; the
// writer then has no active segment until Create succeeds.
func (w *Writer) Abandon(keep int64, next uint64) error {
	if w.f != nil {
		err := os.Truncate(w.Format.Path(w.Dir, w.seq), keep)
		if err == nil {
			w.size = keep
			if w.f.Sync() == nil {
				w.synced = keep
			}
		}
		w.f.Close()
		w.f = nil
		if err != nil {
			return fmt.Errorf("seglog: cut segment %d back to %d bytes: %w", w.seq, keep, err)
		}
	}
	return w.Create(next)
}

// Close syncs and closes the active segment.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("seglog: close segment %d: %w", w.seq, cerr)
	}
	w.f = nil
	return err
}

// WriteFile atomically replaces path with what write produces: a temp
// file in the same directory is written through a buffer, fsynced, and
// renamed over path, and the directory is fsynced so the rename
// survives a crash. On failure the temp file is removed and path is
// untouched.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("seglog: create temp for %s: %w", path, err)
	}
	bw := bufio.NewWriter(f)
	err = f.Chmod(0o644) // CreateTemp's 0600 would differ from the segments Create makes
	if err == nil {
		err = write(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("seglog: write %s: %w", path, err)
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so creates, renames and removes within it
// are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("seglog: sync dir %s: %w", dir, err)
	}
	return nil
}

// Quarantine moves the damaged segment at path aside as path+".corrupt",
// replacing a stale quarantine from an earlier repair, and returns that
// name. With link set the original stays in place, hard-linked, for an
// in-place rewrite. The caller fsyncs the directory.
func Quarantine(path string, link bool) (string, error) {
	q := path + ".corrupt"
	os.Remove(q)
	move := os.Rename
	if link {
		move = os.Link
	}
	if err := move(path, q); err != nil {
		return "", fmt.Errorf("seglog: quarantine %s: %w", path, err)
	}
	return q, nil
}
