// Package seglog is the one segmented log under the journal (internal/wal)
// and the application store (internal/appstore). A log is a directory of
// sequence-numbered segment files; each segment is a header
//
//	[4]byte magic | u32 version | fixed-size opaque extra
//
// followed by frames
//
//	u32 payload length | u32 CRC32C of payload | payload
//
// all little-endian. The CRC covers the payload only: a torn frame
// header reads as a garbage length/CRC pair and a torn payload fails the
// CRC, so a scan stops cleanly at the last whole frame. The package owns
// the frame codec, segment naming and listing, header validation, the
// active-segment writer, one streaming frame walker, copy-forward repair
// with .corrupt quarantine, and the atomic temp+fsync+rename writer.
// Payload formats, indexes and retention stay with the callers.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// FrameSize is the frame header length: payload length plus CRC.
const FrameSize = 8

// castagnoli is the CRC32C table; Castagnoli has hardware support on
// amd64/arm64, which keeps the checksum off the append path's profile.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame reserves a frame header on dst and returns the extended
// buffer plus the header's offset for EndFrame.
func BeginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// EndFrame fills in the length and CRC for the payload appended since
// BeginFrame returned start.
func EndFrame(buf []byte, start int) []byte {
	payload := buf[start+FrameSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// NextFrame splits one CRC-verified frame payload of at most max bytes
// off the front of buf, returning the payload and the remaining bytes.
// An empty buf returns (nil, nil, nil).
func NextFrame(buf []byte, max int) (payload, rest []byte, err error) {
	if len(buf) == 0 {
		return nil, nil, nil
	}
	if len(buf) < FrameSize {
		return nil, nil, fmt.Errorf("seglog: truncated frame header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n == 0 || n > max {
		return nil, nil, fmt.Errorf("seglog: frame payload length %d outside (0,%d]", n, max)
	}
	if len(buf)-FrameSize < n {
		return nil, nil, fmt.Errorf("seglog: frame payload truncated: have %d of %d bytes", len(buf)-FrameSize, n)
	}
	payload = buf[FrameSize : FrameSize+n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[4:]); got != want {
		return nil, nil, fmt.Errorf("seglog: frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return payload, buf[FrameSize+n:], nil
}

// Names is a family of sequence-numbered files in one directory,
// named Prefix + %08d + Suffix.
type Names struct {
	Prefix, Suffix string
}

// Path names file seq inside dir.
func (n Names) Path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", n.Prefix, seq, n.Suffix))
}

// Parse extracts the sequence number from a file name, reporting
// whether the name belongs to the family at all.
func (n Names) Parse(name string) (uint64, bool) {
	mid, ok := strings.CutPrefix(name, n.Prefix)
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, n.Suffix); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, err == nil && seq != 0
}

// Seg is one listed file.
type Seg struct {
	Seq  uint64
	Size int64
}

// List returns the family's files in dir, oldest first.
func (n Names) List(dir string) ([]Seg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: read %s: %w", dir, err)
	}
	var out []Seg
	for _, e := range entries {
		seq, ok := n.Parse(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("seglog: stat %s: %w", e.Name(), err)
		}
		out = append(out, Seg{Seq: seq, Size: info.Size()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

// Pick returns the next run of up to n (at least 1) of the ascending
// sequence numbers seqs, starting at the first at or after cursor and
// wrapping to the start, plus the cursor for the following call, so
// successive low-rate scrub passes cycle through a whole log.
func Pick(seqs []uint64, cursor uint64, n int) ([]uint64, uint64) {
	if len(seqs) == 0 {
		return nil, cursor
	}
	start, _ := slices.BinarySearch(seqs, cursor)
	if start == len(seqs) {
		start = 0
	}
	picks := seqs[start:min(len(seqs), start+max(n, 1))]
	return picks, picks[len(picks)-1] + 1
}

// Format describes one log's segments.
type Format struct {
	Names
	Magic [4]byte
	// Version is written into new segments.
	Version uint32
	// Extra maps every readable version to the size of its opaque
	// header extra; Version must be present.
	Extra map[uint32]int
	// MaxPayload rejects garbage frame lengths before any allocation.
	MaxPayload int
}

// Header is a decoded segment header.
type Header struct {
	Version uint32
	Extra   []byte
	// Size is where frames start; zero when the header is unusable.
	Size int64
}

// EncodeHeader encodes a segment header of the given version carrying
// extra, zero-padded or cut to the version's extra size.
func (f *Format) EncodeHeader(version uint32, extra []byte) []byte {
	b := make([]byte, 8+f.Extra[version])
	copy(b, f.Magic[:])
	binary.LittleEndian.PutUint32(b[4:], version)
	copy(b[8:], extra)
	return b
}

// ReadHeader reads and validates a segment header from r. A short,
// foreign, or unsupported header is not an I/O error: it comes back as
// a non-empty reason with Size 0.
func (f *Format) ReadHeader(r io.Reader) (Header, string, error) {
	short := func(err error) (Header, string, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Header{}, "short segment header", nil
		}
		return Header{}, "", err
	}
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return short(err)
	}
	if [4]byte(pre[:4]) != f.Magic {
		return Header{}, "bad segment magic", nil
	}
	h := Header{Version: binary.LittleEndian.Uint32(pre[4:])}
	n, ok := f.Extra[h.Version]
	if !ok {
		return Header{}, fmt.Sprintf("unsupported segment version %d", h.Version), nil
	}
	h.Extra = make([]byte, n)
	if _, err := io.ReadFull(r, h.Extra); err != nil {
		return short(err)
	}
	h.Size = int64(8 + n)
	return h, "", nil
}

// corruptError marks a walk callback's verdict on a frame.
type corruptError struct{ err error }

func (e corruptError) Error() string { return e.err.Error() }

// Corrupt wraps err, returned from a Walk callback, as a verdict on the
// frame — its payload does not decode — rather than a failure of the
// walk: the frame counts as bad, exactly like a CRC mismatch.
func Corrupt(err error) error { return corruptError{err} }

// Scan is what one walk over a segment found.
type Scan struct {
	Header Header
	// Size is the file size when the walk started.
	Size int64
	// Frames counts intact frames delivered.
	Frames int
	// End is where the walk stopped: just past the last intact frame
	// when it stops at the first bad one (the offset a torn tail is cut
	// back to), the torn offset or end of file when it steps over bad
	// frames. Zero for an unusable header.
	End int64
	// Bad holds the offsets of the frames stepped over.
	Bad []int64
	// Torn reports that the walk ended on bytes that are not a walkable
	// frame (or on an unusable header), with Reason saying what.
	Torn   bool
	Reason string
}

// Report is one segment's pass — verify, cut, or scrub — in either log:
// the walk, and what was done about any damage it found.
type Report struct {
	Seq uint64
	Scan
	// Repaired reports that the damage is gone from disk: the bad frames
	// copied around, the torn tail cut off, or a segment whose header is
	// unusable removed.
	Repaired bool
	// SkipReason says why damage was left in place.
	SkipReason string
	// Quarantined is where the damaged original was kept, if anywhere.
	Quarantined string
	// Lost counts the records inside bad frames, which a repair drops.
	Lost int
}

// Damaged reports whether the walk found anything wrong.
func (r Report) Damaged() bool { return len(r.Bad) > 0 || r.Torn }

// ScrubStats counts one log's scrub activity since open.
type ScrubStats struct {
	// ScrubScans counts sealed segments examined.
	ScrubScans int64
	// ScrubRepairedSegments counts segments rewritten without their bad
	// frames.
	ScrubRepairedSegments int64
	// ScrubLostRecords counts the records a repair dropped with those
	// frames: the only records the detected damage cost.
	ScrubLostRecords int64
	// ScrubQuarantined counts damaged originals kept as .corrupt.
	ScrubQuarantined int64
}

// ScrubEach scrubs each of seqs in turn — the picks of one low-rate
// pass — and returns every report with the first error.
func ScrubEach(seqs []uint64, scrub func(seq uint64) (Report, error)) ([]Report, error) {
	reps := make([]Report, 0, len(seqs))
	var first error
	for _, seq := range seqs {
		rep, err := scrub(seq)
		if err != nil && first == nil {
			first = err
		}
		reps = append(reps, rep)
	}
	return reps, first
}

// Walk streams the frames of the segment at path through one bounded
// buffer, starting at offset from (0 or anything inside the header
// means the first frame), and calls fn, when non-nil, with every intact
// frame's offset and payload; the payload is only valid during the
// call. A frame whose CRC mismatches or whose payload fn rejects with
// Corrupt is bad: with skipBad unset the walk stops there as a torn
// tail — replay, store open, and torn-tail repair — and with skipBad set
// it is stepped over, so one flipped bit does not hide the frames behind
// it — scrub. A length that is implausible or runs past the end of the
// file always ends the walk: nothing after it can be located. Torn or
// corrupt data is reported in the Scan, never as an error; errors are
// I/O failures or errors fn returns.
func (f *Format) Walk(path string, from int64, skipBad bool, fn func(off int64, payload []byte) error) (Scan, error) {
	var sc Scan
	file, err := os.Open(path)
	if err != nil {
		return sc, fmt.Errorf("seglog: open segment %s: %w", path, err)
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil {
		return sc, fmt.Errorf("seglog: stat segment %s: %w", path, err)
	}
	sc.Size = st.Size()
	stop := func(format string, args ...any) (Scan, error) {
		sc.Torn, sc.Reason = true, fmt.Sprintf(format, args...)
		return sc, nil
	}
	br := bufio.NewReaderSize(file, 256<<10)
	if sc.Header, sc.Reason, err = f.ReadHeader(br); err != nil {
		return sc, fmt.Errorf("seglog: read segment header %s: %w", path, err)
	}
	if sc.Torn = sc.Reason != ""; sc.Torn {
		return sc, nil
	}
	sc.End = sc.Header.Size
	if from > sc.End {
		if _, err := file.Seek(from, io.SeekStart); err != nil {
			return sc, fmt.Errorf("seglog: seek segment %s: %w", path, err)
		}
		br.Reset(file)
		sc.End = from
	}
	var fh [FrameSize]byte
	var p []byte
	for off := sc.End; ; off = sc.End {
		_, err := io.ReadFull(br, fh[:])
		if err == io.EOF {
			return sc, nil // clean end at a frame boundary
		}
		n := int(binary.LittleEndian.Uint32(fh[:]))
		if err == nil {
			if n == 0 || n > f.MaxPayload {
				return stop("implausible frame length %d at offset %d", n, off)
			}
			if off+FrameSize+int64(n) > sc.Size {
				// Checked before allocating: a garbage length must not
				// cost a buffer of up to MaxPayload.
				return stop("frame at offset %d runs past the end of the file", off)
			}
			p = slices.Grow(p[:0], n)[:n]
			_, err = io.ReadFull(br, p)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return stop("torn frame at offset %d: the file ends inside it", off)
		}
		if err != nil {
			return sc, fmt.Errorf("seglog: read segment %s at offset %d: %w", path, off, err)
		}
		bad := ""
		if got, want := crc32.Checksum(p, castagnoli), binary.LittleEndian.Uint32(fh[4:]); got != want {
			bad = fmt.Sprintf("CRC mismatch at offset %d (want %08x, got %08x)", off, want, got)
		} else if fn != nil {
			var ce corruptError
			if err := fn(off, p); errors.As(err, &ce) {
				bad = fmt.Sprintf("undecodable frame at offset %d: %v", off, ce.err)
			} else if err != nil {
				return sc, err
			}
		}
		if bad != "" && !skipBad {
			return stop("%s", bad)
		}
		if bad != "" {
			sc.Bad = append(sc.Bad, off)
		} else {
			sc.Frames++
		}
		sc.End = off + FrameSize + int64(n)
	}
}

// Repair rewrites the segment at path without its bad frames: the
// original is kept hard-linked as path+".corrupt", then its header and
// every intact frame (CRC-good and not rejected by check, a Walk
// callback that may be nil) are published under path by WriteFile. A
// crash anywhere leaves either the damaged original in place,
// re-detected by the next scrub, or the repaired segment; never a
// missing one. It returns the walk over the original and the repaired
// size.
func (f *Format) Repair(path string, check func(off int64, payload []byte) error) (Scan, int64, error) {
	src, err := os.Open(path)
	if err != nil {
		return Scan{}, 0, fmt.Errorf("seglog: open segment %s: %w", path, err)
	}
	h, reason, err := f.ReadHeader(src)
	src.Close()
	if err == nil && reason != "" {
		err = fmt.Errorf("seglog: repair %s: %s", path, reason)
	}
	if err != nil {
		return Scan{}, 0, err
	}
	quarantine, err := Quarantine(path, true)
	if err != nil {
		return Scan{}, 0, err
	}
	var sc Scan
	hdr := f.EncodeHeader(h.Version, h.Extra)
	size := int64(len(hdr))
	err = WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		var err error
		sc, err = f.Walk(quarantine, 0, true, func(off int64, p []byte) error {
			if check != nil {
				if err := check(off, p); err != nil {
					return err
				}
			}
			var fh [FrameSize]byte
			binary.LittleEndian.PutUint32(fh[:], uint32(len(p)))
			binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(p, castagnoli))
			if _, err := w.Write(fh[:]); err != nil {
				return err
			}
			size += FrameSize + int64(len(p))
			_, err := w.Write(p)
			return err
		})
		return err
	})
	return sc, size, err
}
