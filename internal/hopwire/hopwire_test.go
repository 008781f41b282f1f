package hopwire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/message"
	"pprox/internal/transport"
)

// echoHandler is a stand-in node: /batch echoes the envelope back with
// statuses set (epoch echoed via the wire-format rule), per-message paths
// echo the body, /healthz answers ok.
func echoHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case message.BatchPath:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "read", http.StatusBadRequest)
				return
			}
			epoch, entries, err := message.DecodeBatchFrame(body)
			if err != nil {
				http.Error(w, "bad envelope", http.StatusBadRequest)
				return
			}
			out := make([]message.BatchEntry, len(entries))
			for i, e := range entries {
				out[i] = message.BatchEntry{ID: e.ID, Status: http.StatusOK, Body: e.Body}
			}
			payload, err := message.MarshalBatchEpoch(nil, epoch, out)
			if err != nil {
				http.Error(w, "marshal", http.StatusInternalServerError)
				return
			}
			w.Write(payload)
		case message.EventsPath, message.QueriesPath:
			body, _ := io.ReadAll(r.Body)
			w.Write(append([]byte("re:"), body...))
		case message.HealthPath:
			fmt.Fprint(w, "ok")
		default:
			http.NotFound(w, r)
		}
	})
}

func startFramePeer(t *testing.T, n *transport.Network, addr string, h http.Handler) func() error {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := ServeHTTPAndFrames(l, h)
	t.Cleanup(func() { shutdown() })
	return shutdown
}

func TestBatchExchangeRoundTrip(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := []message.BatchEntry{
		{ID: 0, Kind: message.BatchKindGet, Body: []byte("q-0")},
		{ID: 1, Kind: message.BatchKindPost, Body: []byte("p-1")},
	}
	frame, err := message.MarshalBatchEpoch(nil, 77, in)
	if err != nil {
		t.Fatal(err)
	}
	status, resp, err := c.RoundTrip(context.Background(), message.BatchPath, frame)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	epoch, out, err := message.DecodeBatchFrame(resp)
	if err != nil {
		t.Fatalf("response not an envelope: %v", err)
	}
	if epoch != 77 {
		t.Fatalf("response epoch = %d, want 77", epoch)
	}
	if len(out) != 2 || !bytes.Equal(out[0].Body, []byte("q-0")) || out[1].Status != http.StatusOK {
		t.Fatalf("out = %+v", out)
	}
}

func TestSingleExchangeAndConnReuse(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 5; i++ {
		status, resp, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("hello"))
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if status != http.StatusOK || string(resp) != "re:hello" {
			t.Fatalf("exchange %d: (%d, %q)", i, status, resp)
		}
	}
	st := c.Stats()
	if st.Exchanges != 5 {
		t.Fatalf("exchanges = %d, want 5", st.Exchanges)
	}
	if st.Dials != 1 || st.Reuses != 4 {
		t.Fatalf("dials/reuses = %d/%d, want 1/4 (persistent conn)", st.Dials, st.Reuses)
	}
}

func TestConcurrentExchanges(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))
	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("msg-%d", i))
			_, resp, err := c.RoundTrip(context.Background(), message.EventsPath, body)
			if err != nil {
				errs <- err
				return
			}
			if want := "re:" + string(body); string(resp) != want {
				errs <- fmt.Errorf("got %q, want %q (cross-exchange mixup)", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The mux must keep serving HTTP on the same listener: health probes and
// JSON-era peers share the address with frame traffic.
func TestMuxServesHTTPAlongsideFrames(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	hc := transport.HTTPClient(n, 5*time.Second)
	resp, err := hc.Get("http://peer" + message.HealthPath)
	if err != nil {
		t.Fatalf("HTTP over mux: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("healthz = (%d, %q)", resp.StatusCode, body)
	}

	c, _ := NewClient(n, "http://peer")
	defer c.Close()
	if _, _, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("x")); err != nil {
		t.Fatalf("frames over mux: %v", err)
	}
}

// A peer that answers a frame with anything but a frame — here a real
// net/http server — fails the exchange like any transport fault: there
// is no other path to fall back to, and nothing is latched, so the next
// exchange contacts the peer again. net/http reads the request line until
// a newline and encrypted slot bodies may contain none; the frame
// header's fixed CRLF terminates that read, so the server answers 400 at
// once and the failure is prompt instead of sitting on the exchange
// deadline.
func TestNonFrameAnswerIsExchangeError(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	l, err := n.Listen("legacy")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go srv.Serve(l)
	defer srv.Close()

	c, err := NewClient(n, "http://legacy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A body with no 0x0A anywhere: without the header CRLF the server
	// would block awaiting the rest of its "request line".
	body := bytes.Repeat([]byte{0xC7}, 700)
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, _, err := c.RoundTrip(context.Background(), message.QueriesPath, body); err == nil {
			t.Fatalf("exchange %d against a non-frame peer succeeded", i)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("exchange %d took %v; the server sat on an unterminated request line", i, d)
		}
	}
	if st := c.Stats(); st.Dials != 2 || st.Exchanges != 0 {
		t.Fatalf("stats = %+v, want 2 dials (no latch) and 0 exchanges", st)
	}
}

// Large frames get the full exchange deadline: a payload far past any
// socket buffer round-trips to a frame-speaking peer.
func TestLargeFrameRoundTrips(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := bytes.Repeat([]byte{0xC7}, 64<<10)
	st, resp, err := c.RoundTrip(context.Background(), message.QueriesPath, big)
	if err != nil || st != http.StatusOK {
		t.Fatalf("large exchange: status %d, err %v", st, err)
	}
	if !bytes.HasPrefix(resp, []byte("re:")) {
		t.Fatalf("resp = %.16q..., want echo", resp)
	}
}

// A server restart between exchanges leaves the client holding a dead
// pooled conn; the health check plus the one-retry rule must recover
// without surfacing an error.
func TestPooledConnSurvivesPeerRestart(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	shutdown := startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("a")); err != nil {
		t.Fatal(err)
	}

	// Restart the peer: the pooled conn is now dead.
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	shutdown2 := ServeHTTPAndFrames(l, echoHandler(t))
	defer shutdown2()

	status, resp, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("b"))
	if err != nil {
		t.Fatalf("exchange after peer restart: %v", err)
	}
	if status != http.StatusOK || string(resp) != "re:b" {
		t.Fatalf("got (%d, %q)", status, resp)
	}
}

// An error frame prices the whole exchange like an HTTP error status.
func TestErrorFrameMapsToStatus(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "next hop unavailable", http.StatusServiceUnavailable)
	}))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status, body, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("x"))
	if err != nil {
		t.Fatalf("error statuses are results, not transport errors: %v", err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if strings.TrimSpace(string(body)) != "next hop unavailable" {
		t.Fatalf("body = %q", body)
	}
}

// A dead peer is a transport error (for the breaker/ladder), never a
// silent fallback.
func TestDeadPeerIsTransportError(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	c, err := NewClient(n, "http://nobody")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.RoundTrip(context.Background(), message.QueriesPath, []byte("x"))
	if err == nil {
		t.Fatalf("err = %v, want a transport error", err)
	}
}

// The server must answer a malformed frame with an error frame and drop
// the connection instead of hanging or panicking.
func TestServerRejectsMalformedFrame(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	conn, err := n.DialContext(context.Background(), "mem", "peer")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid magic, hostile header fields.
	bad := []byte("PPXB")
	bad = append(bad, bytes.Repeat([]byte{0xFF}, message.FrameHeaderSize-4)...)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	respHdr := make([]byte, message.FrameHeaderSize)
	if _, err := io.ReadFull(conn, respHdr); err != nil {
		t.Fatalf("no response to malformed frame: %v", err)
	}
	h, err := message.ParseFrameHeader(respHdr)
	if err != nil {
		t.Fatalf("response not a frame header: %v", err)
	}
	if h.Kind != message.FrameError {
		t.Fatalf("response kind = %d, want error frame", h.Kind)
	}
}

// A connection that never sends a byte — an HTTP client's spare pooled
// dial — has nothing in flight, so shutdown closes it instead of waiting
// out the sniff timeout.
func TestShutdownClosesSilentConns(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	shutdown := startFramePeer(t, n, "peer", echoHandler(t))

	conn, err := n.DialContext(context.Background(), "tcp", "peer")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The listener accepts in dial order, so once a later connection
	// completes an exchange the silent one is being sniffed.
	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.RoundTrip(context.Background(), message.QueriesPath, []byte("x")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- shutdown() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown waited on a connection that never spoke")
	}
}
