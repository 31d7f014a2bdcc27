package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/wal"
)

// journalCmd implements "tracetool journal <dump|verify|truncate> <dir>"
// — offline inspection and repair of an appclassd write-ahead journal
// directory.
func journalCmd(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("journal: want <dump|verify|truncate> <dir>")
	}
	sub, dir := args[0], args[1]
	switch sub {
	case "dump":
		return journalDump(stdout, dir)
	case "verify":
		return journalVerify(stdout, dir)
	case "truncate":
		return journalTruncate(stdout, dir)
	}
	return fmt.Errorf("journal: unknown subcommand %q (want dump, verify, or truncate)", sub)
}

// journalDump prints every replayable record, then the replay summary
// and the latest checkpoint, if any.
func journalDump(w io.Writer, dir string) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seg\toff\ttype\tvm\tsnaps\tspan")
	st, err := wal.Replay(dir, wal.Position{}, func(pos wal.Position, rec wal.Record) error {
		switch rec.Type {
		case wal.RecordBatch:
			span := "-"
			if n := len(rec.Snaps); n > 0 {
				span = fmt.Sprintf("%v..%v", rec.Snaps[0].Time, rec.Snaps[n-1].Time)
			}
			fmt.Fprintf(tw, "%d\t%d\tbatch\t%s\t%d\t%s\n", pos.Seg, pos.Off, rec.VM, len(rec.Snaps), span)
		case wal.RecordFinalize:
			fmt.Fprintf(tw, "%d\t%d\tfinalize\t%s\t-\t-\n", pos.Seg, pos.Off, rec.VM)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "records: %d (snapshots: %d)\n", st.Records, st.Snapshots)
	if st.Truncated {
		fmt.Fprintf(w, "TORN tail at seg %d off %d (run: tracetool journal truncate %s)\n",
			st.TruncatedAt.Seg, st.TruncatedAt.Off, dir)
	}
	cp, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return err
	}
	if cp != nil {
		var payload struct {
			Sessions []struct {
				VM string `json:"vm"`
			} `json:"sessions"`
		}
		sessions := "?"
		if json.Unmarshal(cp.Payload, &payload) == nil {
			sessions = fmt.Sprintf("%d", len(payload.Sessions))
		}
		fmt.Fprintf(w, "checkpoint %d: %s session(s), covers seg %d off %d, taken %s\n",
			cp.Seq, sessions, cp.Pos.Seg, cp.Pos.Off, cp.TakenAt().UTC().Format(time.RFC3339))
	} else {
		fmt.Fprintln(w, "no checkpoint")
	}
	return nil
}

// journalVerify scans every segment and reports its health; it fails
// (exit 1) when any segment is torn, so scripts can gate on it.
func journalVerify(w io.Writer, dir string) error {
	reps, err := wal.VerifyDir(dir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "segment\trecords\tbytes\tvalid\tstatus")
	torn := 0
	for _, rep := range reps {
		status := "ok"
		if rep.Torn {
			status = "TORN: " + rep.Reason
			torn++
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\n", rep.Seq, rep.Frames, rep.Size, rep.End, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if torn > 0 {
		return fmt.Errorf("journal: %d torn segment(s) in %s (repair: tracetool journal truncate %s)", torn, dir, dir)
	}
	fmt.Fprintf(w, "%d segment(s) clean\n", len(reps))
	return nil
}

// journalTruncate repairs torn segments in place, cutting each at its
// last valid record.
func journalTruncate(w io.Writer, dir string) error {
	fixed, err := wal.TruncateAtCorruption(dir)
	if err != nil {
		return err
	}
	if len(fixed) == 0 {
		fmt.Fprintln(w, "nothing to repair")
		return nil
	}
	for _, rep := range fixed {
		fmt.Fprintf(w, "segment %d truncated to %d bytes (%d record(s) kept): %s\n",
			rep.Seq, rep.End, rep.Frames, rep.Reason)
	}
	return nil
}

// scrubCmd implements "tracetool scrub [-repair] <dir>": verify every
// journal segment frame-by-frame against its CRC and — with -repair —
// rewrite damaged segments without their bad frames, quarantining each
// original as <segment>.corrupt. Without -repair it only reports, so a
// cron job can alarm before anything is rewritten. Exits non-zero when
// damage is found and not repaired.
func scrubCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	repair := fs.Bool("repair", false, "rewrite damaged segments without their bad frames (default: report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scrub: want exactly one journal directory, got %v", fs.Args())
	}
	dir := fs.Arg(0)
	reports, err := wal.ScrubDir(dir, *repair)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "segment\trecords\tbad\tstatus")
	unrepaired := 0
	for _, rep := range reports {
		status := "ok"
		switch {
		case rep.Repaired:
			status = fmt.Sprintf("repaired (quarantined %s)", rep.Quarantined)
		case rep.Damaged():
			status = "damaged, not repaired: " + rep.SkipReason
			unrepaired++
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\n", rep.Seq, rep.Frames, len(rep.Bad), status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if unrepaired > 0 {
		return fmt.Errorf("scrub: %d segment(s) still damaged in %s", unrepaired, dir)
	}
	return nil
}
