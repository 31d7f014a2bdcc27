package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/seglog"
)

// ContentType is the media type of binary ingest requests/responses.
const ContentType = "application/x-appclass-wire"

// DefaultClientTimeout bounds one binary ingest round trip when the
// caller supplies no http.Client.
const DefaultClientTimeout = 10 * time.Second

// Client speaks the binary ingest protocol against one daemon. It is
// not safe for concurrent use: callers wanting parallel streams open
// one Client per sender goroutine (each gets its own stream ID).
type Client struct {
	url     string
	hc      *http.Client
	metrics []string

	streamID  uint64
	modelHash [HashSize]byte
	classes   []string
	buf       []byte
}

// NewClient prepares a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). metrics is the column order every Send
// will use; it must cover the daemon's schema exactly. A nil hc gets a
// client with DefaultClientTimeout.
func NewClient(baseURL string, metricNames []string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultClientTimeout}
	}
	return &Client{
		url:     baseURL + "/v1/ingest.bin",
		hc:      hc,
		metrics: append([]string(nil), metricNames...),
	}
}

// ModelHash returns the serving model hash stamped on the stream by
// the last successful handshake.
func (c *Client) ModelHash() [HashSize]byte { return c.modelHash }

// StreamID returns the stream negotiated by the last handshake.
func (c *Client) StreamID() uint64 { return c.streamID }

// Classes returns the class table from the last handshake; batch acks
// index into it.
func (c *Client) Classes() []string { return c.classes }

// Handshake opens (or reopens) a stream: one Hello frame, one
// HelloAck back. It is called automatically by the first Send and
// after a stale-model 409.
func (c *Client) Handshake(ctx context.Context) error {
	buf, start := BeginFrame(c.buf[:0])
	buf = AppendHello(buf, Hello{Version: Version, Metrics: c.metrics})
	buf = EndFrame(buf, start)
	c.buf = buf

	payload, err := c.post(ctx, buf)
	if err != nil {
		return err
	}
	ack, err := ParseHelloAck(payload)
	if err != nil {
		return err
	}
	if ack.Version != Version {
		return fmt.Errorf("wire: server speaks version %d, want %d", ack.Version, Version)
	}
	c.streamID = ack.StreamID
	c.modelHash = ack.ModelHash
	c.classes = ack.Classes
	return nil
}

// Send ships one batch of groups and returns the classified class
// name for every snapshot, in input order (groups in order, rows in
// order within each group). On a stale-model or expired-stream 409 it
// re-handshakes once and retries, so a daemon hot swap costs one round
// trip, not a failed batch.
func (c *Client) Send(ctx context.Context, groups []Group) ([]string, error) {
	if c.streamID == 0 {
		if err := c.Handshake(ctx); err != nil {
			return nil, err
		}
	}
	classIDs, err := c.send(ctx, groups)
	var stale *StaleStreamError
	if errors.As(err, &stale) {
		if err = c.Handshake(ctx); err != nil {
			return nil, err
		}
		classIDs, err = c.send(ctx, groups)
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, len(classIDs))
	for i, id := range classIDs {
		if int(id) >= len(c.classes) {
			return nil, fmt.Errorf("wire: class id %d outside table of %d", id, len(c.classes))
		}
		out[i] = c.classes[id]
	}
	return out, nil
}

func (c *Client) send(ctx context.Context, groups []Group) ([]byte, error) {
	buf, start := BeginFrame(c.buf[:0])
	buf, err := AppendBatch(buf, c.streamID, len(c.metrics), groups)
	if err != nil {
		return nil, err
	}
	buf = EndFrame(buf, start)
	c.buf = buf

	payload, err := c.post(ctx, buf)
	if err != nil {
		return nil, err
	}
	ids, err := ParseBatchAck(payload)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), ids...), nil
}

// StaleStreamError reports a 409: the stream is unknown to the server
// or pinned to a model that is no longer serving. NewHash carries the
// serving model's hash when the server supplied one.
type StaleStreamError struct {
	Message string
	NewHash [HashSize]byte
}

func (e *StaleStreamError) Error() string { return e.Message }

// post ships one framed request body and returns the single response
// frame's payload.
func (c *Client) post(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrame+seglog.FrameSize))
	if err != nil {
		return nil, err
	}
	payload, _, err := NextFrame(raw)
	if err != nil {
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("wire: server returned %d", resp.StatusCode)
		}
		return nil, err
	}
	if payload == nil {
		return nil, fmt.Errorf("wire: server returned %d with empty body", resp.StatusCode)
	}
	if payload[0] == FrameError {
		ef, perr := ParseError(payload)
		if perr != nil {
			return nil, fmt.Errorf("wire: server returned %d with bad error frame: %v", resp.StatusCode, perr)
		}
		if ef.Code == http.StatusConflict {
			return nil, &StaleStreamError{Message: ef.Message, NewHash: ef.ModelHash}
		}
		return nil, fmt.Errorf("wire: server error %d: %s", ef.Code, ef.Message)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wire: server returned %d", resp.StatusCode)
	}
	return payload, nil
}
