package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/appclass"
	"repro/internal/metrics"
)

// ingestResult and ingestResponse are the JSON ingest reply in the
// shape writeJSON encodes: the reference appendIngestReply is checked
// against, and what tests decode replies into.
type ingestResult struct {
	VM    string `json:"vm"`
	Class string `json:"class"`
}

type ingestResponse struct {
	Accepted int            `json:"accepted"`
	Results  []ingestResult `json:"results"`
}

// schemaServer is a Server with just enough configured for the JSON
// decoder, which reads only the schema.
func schemaServer() *Server {
	return &Server{cfg: Config{Schema: metrics.DefaultSchema()}}
}

// jsonRow is a JSON array of n values, x and then zeros, so a seed's
// odd value sits in a row of full length.
func jsonRow(n int, x string) string {
	return "[" + x + strings.Repeat(",0", n-1) + "]"
}

// ingestJSONSeeds are bodies for FuzzIngestJSON: the forms clients
// send, each number edge, each invalid number form, and each form the
// scanner must leave to encoding/json.
func ingestJSONSeeds() []string {
	n := metrics.DefaultSchema().Len()
	row := jsonRow(n, "1.5")
	snap := func(vm, at, vals string) string {
		return `{"vm":` + vm + `,"time_s":` + at + `,"values":` + vals + `}`
	}
	batch := func(snaps ...string) string {
		return `{"snapshots":[` + strings.Join(snaps, ",") + `]}`
	}
	seeds := []string{
		// bench's field order, json.Marshal's alphabetical order, and
		// whitespace between every token.
		batch(snap(`"vm-a"`, "5", row), snap(`"vm-b"`, "10", row), snap(`"vm-a"`, "15", row)),
		`{"snapshots":[{"time_s":0,"values":` + row + `,"vm":"vm-a"}]}`,
		" \n{ \"snapshots\" :\t[ { \"vm\" : \"vm-a\" ,\r\"time_s\" : 1 , \"values\" : [ " +
			strings.Repeat("2 , ", n-1) + "2 ] } , {\"values\":" + row + " ,\"vm\":\"vm-b\",\"time_s\":2}\n] }\n ",
		// Bytes after the body.
		batch(snap(`"a"`, "0", jsonRow(n, "1e5")), snap(`"b"`, "0", row)) + " x",
		batch() + "{}",
		// Names with escapes, non-ASCII and HTML characters, too long,
		// or empty.
		batch(snap(`"vm\n\"q\""`, "0", row)),
		batch(snap(`"vm-é"`, "0", row)),
		batch(snap(`"<a&b>"`, "0", row)),
		batch(snap(`"`+strings.Repeat("v", 300)+`"`, "0", row)),
		batch(snap(`""`, "0", row)),
		// Duplicate, unknown, differently cased and missing keys.
		`{"snapshots":[{"vm":"a","vm":"b","time_s":0,"values":` + row + `}]}`,
		`{"snapshots":[{"vm":"a","time_s":0,"values":` + row + `,"extra":1}]}`,
		`{"snapshots":[{"VM":"a","time_s":0,"values":` + row + `}]}`,
		`{"snapshots":[{"vm":"a","values":` + row + `}]}`,
		`{"snapshots":[],"snapshots":[` + snap(`"a"`, "0", row) + `]}`,
		`{"Snapshots":[` + snap(`"a"`, "0", row) + `]}`,
		// null, the by-name form, too few and too many values, a time
		// past int64 nanoseconds, and an empty batch.
		batch(snap(`"a"`, "0", "null")),
		batch(snap(`null`, "0", row)),
		batch(snap(`"a"`, "0", jsonRow(n, "null"))),
		`{"snapshots":null}`,
		batch(`{"vm":"a","time_s":0,"metrics":{"cpu_user":1}}`),
		batch(snap(`"a"`, "0", jsonRow(n-1, "1"))),
		batch(snap(`"a"`, "0", jsonRow(n+1, "1"))),
		batch(snap(`"a"`, "0", "[]")),
		batch(snap(`"a"`, "1e12", row)),
		batch(),
	}
	for _, num := range []string{"-0", "5e-324", "1e308", "1e309", "1e-400",
		strconv.FormatFloat(math.MaxFloat64, 'g', -1, 64), strconv.FormatFloat(-math.MaxFloat64, 'g', -1, 64),
		"01", "+1", ".5", "1.", "1e", "-", "1E+2", "0.0e-0"} {
		seeds = append(seeds, batch(snap(`"a"`, num, row)), batch(snap(`"a"`, "0", jsonRow(n, num))))
	}
	return seeds
}

// FuzzIngestJSON checks the JSON ingest decoder against encoding/json:
// for any body, decodeJSON and the reference (json.Unmarshal, then the
// same validation loop) give the same status and message, and on
// success the same groups, input order and snapshots, down to the bits
// of every value. appendIngestReply must then produce writeJSON's
// bytes for the decoded VMs.
func FuzzIngestJSON(f *testing.F) {
	for _, seed := range ingestJSONSeeds() {
		f.Add([]byte(seed))
	}
	s := schemaServer()
	var got, want ingestScratch
	f.Fuzz(func(t *testing.T, body []byte) {
		got.body.Reset()
		got.body.Write(body)
		gotErr := s.decodeJSON(&got)
		in, wantErr := unmarshalIngest(body)
		if wantErr == nil {
			wantErr = s.groupJSON(&want, in)
		}
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decodeJSON error %v, encoding/json error %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.code != wantErr.code || gotErr.msg != wantErr.msg {
				t.Fatalf("decodeJSON answers %d %q, encoding/json %d %q", gotErr.code, gotErr.msg, wantErr.code, wantErr.msg)
			}
			return
		}
		sameDecode(t, &got, &want)
		checkReply(t, &got)
	})
}

// sameDecode fails unless two decoded scratches hold the same groups,
// input order and snapshots, value bits included.
func sameDecode(t *testing.T, got, want *ingestScratch) {
	t.Helper()
	if !slices.Equal(got.groups, want.groups) || !slices.Equal(got.at, want.at) {
		t.Fatalf("groups %v at %v, encoding/json gives %v at %v", got.groups, got.at, want.groups, want.at)
	}
	if len(got.snaps) != len(want.snaps) {
		t.Fatalf("%d snapshots, encoding/json gives %d", len(got.snaps), len(want.snaps))
	}
	for i, g := range got.snaps {
		w := want.snaps[i]
		if g.Node != w.Node || g.Time != w.Time || len(g.Values) != len(w.Values) {
			t.Fatalf("snapshot %d is %q at %v with %d values, encoding/json gives %q at %v with %d",
				i, g.Node, g.Time, len(g.Values), w.Node, w.Time, len(w.Values))
		}
		for j, v := range g.Values {
			if math.Float64bits(v) != math.Float64bits(w.Values[j]) {
				t.Fatalf("snapshot %d value %d is %v, encoding/json gives %v", i, j, v, w.Values[j])
			}
		}
	}
}

// checkReply gives a decoded scratch a class per snapshot and fails
// unless appendIngestReply's bytes are writeJSON's for the same reply.
func checkReply(t *testing.T, sc *ingestScratch) {
	t.Helper()
	classes := append(appclass.All(), appclass.Unknown)
	sc.classes = sc.classes[:0]
	for i := range sc.snaps {
		sc.classes = append(sc.classes, classes[i%len(classes)])
	}
	resp := ingestResponse{Accepted: len(sc.at)}
	for _, k := range sc.at {
		resp.Results = append(resp.Results, ingestResult{VM: sc.snaps[k].Node, Class: string(sc.classes[k])})
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if got := appendIngestReply(nil, sc); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("reply\n%s\nwriteJSON gives\n%s", got, want.Bytes())
	}
}

// TestIngestJSONSeedsReachBothDecoders: go test runs FuzzIngestJSON's
// seeds as tier-1 cases, and they compare the scanner with
// encoding/json only if some of them take the scanner and some do not.
func TestIngestJSONSeedsReachBothDecoders(t *testing.T) {
	n := metrics.DefaultSchema().Len()
	seeds := ingestJSONSeeds()
	scanned := 0
	for _, seed := range seeds {
		var sc ingestScratch
		sc.body.WriteString(seed)
		if _, ok := sc.scanJSON(n); ok {
			scanned++
		}
	}
	if scanned == 0 || scanned == len(seeds) {
		t.Errorf("the scanner took %d of %d seeds", scanned, len(seeds))
	}
}

// TestScanJSONTakesClientForms checks that the bodies the repository's
// own clients send take the single-pass scanner, and the by-name form
// does not.
func TestScanJSONTakesClientForms(t *testing.T) {
	schema := metrics.DefaultSchema()
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, schema.Len())
	for i := range vals {
		vals[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
	}
	type snapJSON struct {
		VM          string    `json:"vm"`
		TimeSeconds float64   `json:"time_s"`
		Values      []float64 `json:"values"`
	}
	// The load generator's hand-built body: 'g'-formatted numbers.
	var bench strings.Builder
	bench.WriteString(`{"snapshots":[{"vm":"fleet-0001","time_s":15,"values":[`)
	for i, v := range vals {
		if i > 0 {
			bench.WriteByte(',')
		}
		bench.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	bench.WriteString(`]}]}`)
	named := make(map[string]float64)
	for i, name := range schema.Names() {
		named[name] = vals[i]
	}
	for _, tc := range []struct {
		name string
		body string
		scan bool
	}{
		{"load generator", bench.String(), true},
		{"json.Marshal of a map (examples/daemon)", mustJSON(map[string]any{"snapshots": []map[string]any{
			{"vm": "replay", "time_s": 2.5, "values": vals}}}), true},
		{"zeroSnapshot", mustJSON(map[string]any{"snapshots": []any{zeroSnapshot("vm-ok", 0)}}), true},
		{"struct in field order (BenchmarkIngestBatch)", mustJSON(map[string]any{"snapshots": []snapJSON{
			{VM: "bench-vm-00", TimeSeconds: 5, Values: vals}}}), true},
		{"by name", mustJSON(map[string]any{"snapshots": []any{
			map[string]any{"vm": "v", "time_s": 0, "metrics": named}}}), false},
	} {
		var sc ingestScratch
		sc.body.WriteString(tc.body)
		if _, ok := sc.scanJSON(schema.Len()); ok != tc.scan {
			t.Errorf("%s: scanner took the body: %v, want %v", tc.name, ok, tc.scan)
		}
	}
}

// TestIngestJSONAllocsPerVM pins the JSON path's allocations on a warm
// scratch: decoding a batch and encoding its reply allocate each
// distinct VM name once, whatever the number of rows.
func TestIngestJSONAllocsPerVM(t *testing.T) {
	s := schemaServer()
	const vms = 4
	allocs := func(perVM int) float64 {
		var b strings.Builder
		b.WriteString(`{"snapshots":[`)
		for r := 0; r < perVM; r++ {
			for v := 0; v < vms; v++ {
				if r+v > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"vm":"alloc-vm-%d","time_s":%d,"values":%s}`, v, r*5, jsonRow(s.cfg.Schema.Len(), "0.25"))
			}
		}
		b.WriteString(`]}`)
		var sc ingestScratch
		sc.body.WriteString(b.String())
		sc.classes = make([]appclass.Class, vms*perVM)
		run := func() {
			if e := s.decodeJSON(&sc); e != nil {
				t.Fatal(e.msg)
			}
			sc.resp = appendIngestReply(sc.resp[:0], &sc)
		}
		run() // warm the scratch
		return testing.AllocsPerRun(20, run)
	}
	a8, a32 := allocs(8), allocs(32)
	if a8 != a32 {
		t.Errorf("%v allocs at 8 rows per VM, %v at 32: the JSON path allocates per snapshot", a8, a32)
	}
	if a32 > vms {
		t.Errorf("%v allocs for %d VMs, want at most one per distinct VM", a32, vms)
	}
}
