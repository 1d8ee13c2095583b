package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

// replica is one in-process fadingd server listening on loopback.
type replica struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startReplica starts a fadingd replica whose handler is wrapped by the
// run's switchable tracer.
func startReplica(kr *token.Keyring, tr *atomic.Pointer[tracer]) (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := service.New(service.Config{Keyring: kr})
	r := &replica{
		srv:  srv,
		hs:   &http.Server{Handler: &tracedHandler{inner: srv.Handler(), tr: tr}},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return r, nil
}

// close shuts the replica down and waits for its goroutines.
func (r *replica) close() {
	r.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		_ = r.hs.Close()
	}
	<-r.done
	r.srv.Close()
}

// scrape reads the replica's /metrics in process, without a connection.
func (r *replica) scrape() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseExposition(rec.Body.String())
}

// frameKey names one served block: the spec it came from (its index in the
// run's spec table) and its block index.
type frameKey struct {
	spec  int
	index uint64
}

// capture keeps what the output check needs without parsing anything
// while timing: one digest per served block, plus the first copy of each
// NDJSON line. A repeat of a block already seen is compared with the first
// copy's digest on the spot. The warm-up reads every block of the stream
// workloads' sessions once, so their timed windows only repeat blocks. One
// capture serves all clients of a world.
type capture struct {
	seed      maphash.Seed
	keepLines bool

	mu      sync.Mutex
	digests map[frameKey]uint64
	lines   map[frameKey][]byte
	frames  int
}

func newCapture(keepLines bool) *capture {
	return &capture{seed: maphash.MakeSeed(), keepLines: keepLines,
		digests: make(map[frameKey]uint64), lines: make(map[frameKey][]byte)}
}

// add records one frame; it reports false when the frame differs from an
// earlier copy of the same block, which fails the request that read it.
func (c *capture) add(k frameKey, frame []byte) bool {
	d := maphash.Bytes(c.seed, frame)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames++
	if prev, ok := c.digests[k]; ok {
		return prev == d
	}
	c.digests[k] = d
	if c.keepLines {
		c.lines[k] = bytes.Clone(frame)
	}
	return true
}

// samples are one client's timings from one timed window, in milliseconds.
type samples struct {
	firstBlock []float64 // stream GET sent → first complete frame
	gaps       []float64 // between consecutive frames of one request
	ops        []float64 // one operation, from its due time to its end
	lag        []float64 // how late each operation was sent
	blocks     int
	attempted  int
	failed     int
	firstErr   error
}

// count records one attempted operation and whether it failed; it reports
// whether the operation succeeded.
func (s *samples) count(err error) bool {
	s.attempted++
	if err == nil {
		return true
	}
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
	return false
}

func (s *samples) merge(o *samples) {
	s.firstBlock = append(s.firstBlock, o.firstBlock...)
	s.gaps = append(s.gaps, o.gaps...)
	s.ops = append(s.ops, o.ops...)
	s.lag = append(s.lag, o.lag...)
	s.blocks += o.blocks
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client is one connection's worth of load: its own transport holds at most
// one connection per replica.
type client struct {
	w   *world
	hc  *http.Client
	smp *samples // set while a timed window runs
	br  *bufio.Reader
	buf []byte
	// creates holds every POST /v1/sessions latency of the run, send to
	// reply, set-up included.
	creates []float64
}

func newClient(w *world) *client {
	return &client{
		w: w,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		br: bufio.NewReaderSize(nil, 256<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req tagged with a fresh request id inside a client span named
// name; the span ends when done is called.
func (c *client) do(req *http.Request, name string) (*http.Response, func(), int64, error) {
	tr := c.w.tr.Load()
	id := c.w.reqs.Add(1)
	req.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	sid := tr.newID()
	start := tr.now()
	resp, err := c.hc.Do(req)
	done := func() { tr.record(span{Name: name, ID: sid, Req: id, Start: start, End: tr.now()}) }
	if err != nil {
		done()
		return nil, nil, 0, err
	}
	return resp, done, sid, nil
}

// create opens a session and returns its id and resume token.
func (c *client) create(base string, spec *service.SessionSpec) (string, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", "", err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	sent := time.Now()
	resp, done, _, err := c.do(req, "client.create")
	if err != nil {
		return "", "", fmt.Errorf("create: %w", err)
	}
	defer done()
	defer func() { c.creates = append(c.creates, ms(time.Since(sent))) }()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return "", "", fmt.Errorf("create: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var info struct {
		ID    string `json:"id"`
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", "", fmt.Errorf("create: %w", err)
	}
	return info.ID, info.Token, nil
}

// remove deletes a session; a 404 is accepted when allowMissing is set.
func (c *client) remove(base, id string, allowMissing bool) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, done, _, err := c.do(req, "client.delete")
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	defer done()
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent || (allowMissing && resp.StatusCode == http.StatusNotFound) {
		return nil
	}
	return fmt.Errorf("delete: status %d", resp.StatusCode)
}

// stream reads blocks [from, from+count) of a session, checks the framing,
// the block order and the trailer, and adds the frames to the capture.
// While a timed window runs it also records the timings.
func (c *client) stream(base, id, bearer string, spec int, from uint64, count int) error {
	url := fmt.Sprintf("%s/v1/sessions/%s/stream?from=%d&count=%d&format=%s", base, id, from, count, c.w.p.format)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	tr := c.w.tr.Load()
	sent := time.Now()
	resp, done, parent, err := c.do(req, "client.request")
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if got := resp.Header.Get("X-Fadingd-Blocks"); got != strconv.Itoa(count) {
		return fmt.Errorf("stream: X-Fadingd-Blocks %q, want %d", got, count)
	}
	c.br.Reset(resp.Body)
	last := sent
	for k := 0; k < count; k++ {
		index := from + uint64(k)
		frame, err := c.readFrame(index)
		if err != nil {
			return fmt.Errorf("stream: block %d: %w", index, err)
		}
		now := time.Now()
		if c.smp != nil {
			if k == 0 {
				c.smp.firstBlock = append(c.smp.firstBlock, ms(now.Sub(sent)))
			} else {
				c.smp.gaps = append(c.smp.gaps, ms(now.Sub(last)))
			}
			c.smp.blocks++
			c.w.blocks.Add(1)
		}
		last = now
		start := tr.now()
		ok := c.w.cap.add(frameKey{spec, index}, frame)
		tr.record(span{Name: "client.frame", Parent: parent, Start: start, End: tr.now()})
		if !ok {
			return fmt.Errorf("stream: block %d differs from an earlier copy", index)
		}
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("stream: data after the last block (%v)", err)
	}
	if got := resp.Trailer.Get("X-Fadingd-Blocks-Sent"); got != strconv.Itoa(count) {
		return fmt.Errorf("stream: truncated: X-Fadingd-Blocks-Sent %q, want %d", got, count)
	}
	return nil
}

// readFrame reads the next frame of the response: a binary frame whose
// header names block index, or one NDJSON line (checked later, off the
// clock). The returned slice is valid until the next call.
func (c *client) readFrame(index uint64) ([]byte, error) {
	if c.w.p.format == service.FormatNDJSON {
		c.buf = c.buf[:0]
		for {
			chunk, err := c.br.ReadSlice('\n')
			c.buf = append(c.buf, chunk...)
			if err == nil {
				return c.buf, nil
			}
			if !errors.Is(err, bufio.ErrBufferFull) {
				return nil, err
			}
		}
	}
	const header = 24
	c.buf = grow(c.buf, header)
	if _, err := io.ReadFull(c.br, c.buf); err != nil {
		return nil, err
	}
	if string(c.buf[:4]) != "FDB1" {
		return nil, fmt.Errorf("bad frame magic %q", c.buf[:4])
	}
	if got := binary.LittleEndian.Uint64(c.buf[8:]); got != index {
		return nil, fmt.Errorf("frame carries block %d", got)
	}
	n := int(binary.LittleEndian.Uint32(c.buf[16:]))
	m := int(binary.LittleEndian.Uint32(c.buf[20:]))
	size := header + n*m*8
	if c.buf[4]&1 != 0 {
		size += n * m * 16
	}
	c.buf = grow(c.buf, size)
	if _, err := io.ReadFull(c.br, c.buf[header:]); err != nil {
		return nil, err
	}
	return c.buf, nil
}

// grow returns b resized to n bytes, keeping its prefix.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, n+n/4)
		copy(nb, b)
		return nb
	}
	return b[:n]
}
