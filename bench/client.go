package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/appclass"
	"repro/internal/wire"
)

// conn is one sender's connection to the daemon and the requests it
// knows how to send. It is owned by a single goroutine at a time.
type conn struct {
	base string
	hc   *http.Client
	wc   *wire.Client // binary workloads
	p    *plan
	o    *oracle

	groups []wire.Group
	starts []int // first snapshot index of each group in flight
	body   bytes.Buffer
	// page2 is the cursor of the last first-page /v1/runs answer; the
	// next unfiltered query in the rotation fetches the page after it.
	page2 uint64
	// sh, in traced runs, replays every acknowledged request through
	// the shadow pipeline's per-layer probes.
	sh *shadow
}

// newHTTPClient returns a client pinned to a single keep-alive
// connection, so one sender is one TCP connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

func newConn(base string, hc *http.Client, p *plan, o *oracle, in *Inputs) *conn {
	c := &conn{base: base, hc: hc, p: p, o: o}
	if p.w.Binary {
		c.wc = wire.NewClient(base, in.Schema.Names(), c.hc)
	}
	return c
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// handshake opens the binary stream before any timed request.
func (c *conn) handshake(ctx context.Context) error {
	if c.wc == nil {
		return nil
	}
	return c.wc.Handshake(ctx)
}

// ingest sends each group's next n snapshots in one request and checks
// every acknowledged class against the oracle. It returns the number of
// snapshots acknowledged. A failed request settles the churn runs it
// carried, whose finishes then fail instead of waiting.
func (c *conn) ingest(ctx context.Context, gs []group) (int, error) {
	total := 0
	c.starts = c.starts[:0]
	for _, g := range gs {
		v := c.p.vms[g.vm]
		c.starts = append(c.starts, v.sent)
		v.sent += int(g.n)
		total += int(g.n)
	}
	var classes []string
	var err error
	if c.wc != nil {
		classes, err = c.sendBinary(ctx, gs)
	} else {
		classes, err = c.sendJSON(ctx, gs, total)
	}
	if err == nil && len(classes) != total {
		err = mismatch("ingest acked %d classes for %d snapshots", len(classes), total)
	}
	if err != nil {
		for _, g := range gs {
			c.p.vms[g.vm].settleRun()
		}
		return 0, err
	}
	i := 0
	var bad error
	for gi, g := range gs {
		v := c.p.vms[g.vm]
		for k := c.starts[gi]; k < c.starts[gi]+int(g.n); k++ {
			if want := v.trace.Expect[v.row(k)].Class; classes[i] != string(want) && bad == nil {
				bad = mismatch("%s snapshot %d acked class %q, oracle says %q", v.name, k, classes[i], want)
			}
			i++
		}
		if n := v.acked.Add(int64(g.n)); int(n) == v.length {
			v.settleRun()
		}
	}
	if bad != nil {
		return 0, bad
	}
	if c.sh != nil {
		c.sh.ingested(gs, c.starts)
	}
	return total, nil
}

func (c *conn) sendBinary(ctx context.Context, gs []group) ([]string, error) {
	for len(c.groups) < len(gs) {
		c.groups = append(c.groups, wire.Group{})
	}
	batch := c.groups[:len(gs)]
	for i, g := range gs {
		v := c.p.vms[g.vm]
		wg := &batch[i]
		wg.VM = v.name
		wg.Times, wg.Rows = wg.Times[:0], wg.Rows[:0]
		for k := c.starts[i]; k < c.starts[i]+int(g.n); k++ {
			wg.Times = append(wg.Times, timeOf(k))
			wg.Rows = append(wg.Rows, v.trace.Rows[v.row(k)])
		}
	}
	return c.wc.Send(ctx, batch)
}

type ingestReply struct {
	Accepted int `json:"accepted"`
	Results  []struct {
		VM    string `json:"vm"`
		Class string `json:"class"`
	} `json:"results"`
}

func (c *conn) sendJSON(ctx context.Context, gs []group, total int) ([]string, error) {
	b := &c.body
	b.Reset()
	b.WriteString(`{"snapshots":[`)
	first := true
	for gi, g := range gs {
		v := c.p.vms[g.vm]
		for k := c.starts[gi]; k < c.starts[gi]+int(g.n); k++ {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(`{"vm":`)
			b.WriteString(strconv.Quote(v.name))
			b.WriteString(`,"time_s":`)
			b.WriteString(strconv.FormatFloat(timeOf(k), 'g', -1, 64))
			b.WriteString(`,"values":`)
			b.Write(v.trace.JSON[v.row(k)])
			b.WriteByte('}')
		}
	}
	b.WriteString(`]}`)
	var rep ingestReply
	if err := c.do(ctx, http.MethodPost, "/v1/ingest", b.Bytes(), &rep); err != nil {
		return nil, err
	}
	if rep.Accepted != total {
		return nil, mismatch("ingest accepted %d of %d snapshots", rep.Accepted, total)
	}
	classes := make([]string, len(rep.Results))
	i := 0
	for _, g := range gs {
		name := c.p.vms[g.vm].name
		for k := 0; k < int(g.n) && i < len(rep.Results); k++ {
			if rep.Results[i].VM != name {
				return nil, mismatch("ingest result %d names vm %q, sent %q", i, rep.Results[i].VM, name)
			}
			classes[i] = rep.Results[i].Class
			i++
		}
	}
	return classes, nil
}

// finishReply is the part of POST /v1/vms/{vm}/finish the oracle checks.
type finishReply struct {
	VM      string `json:"vm"`
	Class   string `json:"class"`
	Samples int    `json:"samples"`
	Verdict string `json:"verdict"`
	Phases  int    `json:"phases"`
}

// finishAfterLastBatch finishes churn run vi once another connection
// has had its last batch acknowledged. A run whose ingest failed, or
// whose remaining batches the ingest sender abandoned, is not finished:
// the finish fails at once.
func (c *conn) finishAfterLastBatch(ctx context.Context, vi int) error {
	v := c.p.vms[vi]
	select {
	case <-v.settled:
	case <-c.p.ingestDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	if n := v.acked.Load(); int(n) != v.length {
		return fmt.Errorf("run %s: %d of %d snapshots acknowledged, finish not sent", v.name, n, v.length)
	}
	return c.finish(ctx, vi)
}

// finish finalizes VM vi. The reply must report every acknowledged
// snapshot and the class and verdict the oracle derives from them.
func (c *conn) finish(ctx context.Context, vi int) error {
	v := c.p.vms[vi]
	var rep finishReply
	if err := c.do(ctx, http.MethodPost, "/v1/vms/"+url.PathEscape(v.name)+"/finish", nil, &rep); err != nil {
		return err
	}
	v.finished = true
	if c.sh != nil {
		c.sh.finished(vi, rep)
	}
	return c.o.checkFinish(v, vi, rep)
}

// runsReply is GET /v1/runs.
type runsReply struct {
	Count int `json:"count"`
	Runs  []struct {
		App     string `json:"app"`
		Class   string `json:"class"`
		Samples int    `json:"samples"`
		Verdict string `json:"verdict"`
		Phases  int    `json:"phases"`
	} `json:"runs"`
	NextCursor uint64 `json:"next_cursor"`
}

// queryLimit is the page size of every /v1/runs request.
const queryLimit = 50

// query sends the q'th /v1/runs request of the rotation: no filter
// (alternately the first page and the page after it), a class, a
// verdict, or one application — a just-finished run when one awaits
// verification, so the stored record is checked against the oracle.
func (c *conn) query(ctx context.Context, q int) error {
	v := url.Values{"limit": {strconv.Itoa(queryLimit)}}
	var check *runExpect
	turn := q / 4
	switch q % 4 {
	case 0:
		if turn%2 == 1 && c.page2 != 0 {
			v.Set("cursor", strconv.FormatUint(c.page2, 10))
		}
	case 1:
		v.Set("class", string(appclass.All()[turn%len(appclass.All())]))
	case 2:
		v.Set("verdict", string(verdictRotation[turn%len(verdictRotation)]))
	case 3:
		if e, ok := c.o.nextPending(); ok {
			check = &e
			v.Set("app", e.name)
		} else if c.p.w.PriorApps > 0 {
			v.Set("app", priorApp(turn%c.p.w.PriorApps))
		} else {
			v.Set("app", c.p.vms[turn%len(c.p.vms)].name)
		}
	}
	var rep runsReply
	if err := c.do(ctx, http.MethodGet, "/v1/runs?"+v.Encode(), nil, &rep); err != nil {
		return err
	}
	if q%4 == 0 && !v.Has("cursor") {
		c.page2 = rep.NextCursor
	}
	if c.sh != nil {
		c.sh.queried(v)
	}
	return c.o.checkRuns(v, rep, check)
}

// verifyStored fetches a finished run's stored record and checks it.
func (c *conn) verifyStored(ctx context.Context, e runExpect) error {
	v := url.Values{"app": {e.name}, "limit": {"1"}}
	var rep runsReply
	if err := c.do(ctx, http.MethodGet, "/v1/runs?"+v.Encode(), nil, &rep); err != nil {
		return err
	}
	return c.o.checkRuns(v, rep, &e)
}

// do sends one request and decodes its 200 JSON reply into out.
func (c *conn) do(ctx context.Context, method, path string, body []byte, out any) error {
	raw, err := c.call(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// get fetches path and returns the raw 200 body.
func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	return c.call(ctx, http.MethodGet, path, nil)
}

// call sends one request and returns the body of a 200 reply; any other
// status is an error carrying the body.
func (c *conn) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, raw)
	}
	return raw, nil
}
