package hopwire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"pprox/internal/message"
)

// Server serves frame connections by bridging each frame into the node's
// existing HTTP stack: a batch frame becomes an in-memory POST /batch, a
// single frame a POST to its entry's per-message path, a telemetry frame
// a POST /telemetry at the fleet collector. The bridge keeps
// every middleware the node already stacks — fault injection, metrics,
// audit routes — on the frame path for free, and guarantees that frames
// and HTTP expose the same behaviour at every node.
type Server struct {
	h http.Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps a node's HTTP handler for frame serving.
func NewServer(h http.Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		h:      h,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Close drops every live frame connection and cancels in-flight bridged
// requests.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.closed = true
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// ServeConn serves frames on one connection until it fails, idles out, or
// the server closes. It blocks; the mux runs it on the connection's
// goroutine.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()

	br, ok := connReader(conn)
	if !ok {
		br = bufio.NewReaderSize(conn, 32<<10)
	}
	hdr := make([]byte, message.FrameHeaderSize)
	// One read buffer per connection, grown to the largest frame seen:
	// nothing dispatched retains the request frame (the bridge hands the
	// handler stack a body it copies), so the next frame may overwrite it.
	var frameBuf []byte
	for {
		// Between frames the connection may idle in the peer's pool.
		conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		h, err := message.ParseFrameHeader(hdr)
		if err != nil {
			// The stream position is unknown after a malformed header:
			// answer once, then drop the connection.
			conn.SetWriteDeadline(time.Now().Add(serverIOTimeout))
			conn.Write(message.AppendErrorFrame(nil, 0, http.StatusBadRequest, "bad frame"))
			return
		}
		if cap(frameBuf) < h.FrameSize() {
			frameBuf = make([]byte, h.FrameSize())
		}
		frame := frameBuf[:h.FrameSize()]
		copy(frame, hdr)
		conn.SetReadDeadline(time.Now().Add(serverIOTimeout))
		if _, err := io.ReadFull(br, frame[message.FrameHeaderSize:]); err != nil {
			return
		}
		resp, ok := s.dispatch(h, frame, conn.RemoteAddr().String())
		if !ok {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(serverIOTimeout))
		if _, err := conn.Write(resp); err != nil {
			return
		}
		conn.SetDeadline(time.Time{})
	}
}

// dispatch bridges one request frame into the HTTP stack and renders the
// response frame. ok is false when the handler aborted the exchange by
// panicking with http.ErrAbortHandler (a fault injector's dropped
// connection, say): as under net/http, the connection then closes
// without an answer. Any other panic is re-raised.
func (s *Server) dispatch(h message.FrameHeader, frame []byte, remote string) (resp []byte, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != http.ErrAbortHandler {
				panic(r)
			}
			resp, ok = nil, false
		}
	}()
	return s.render(h, frame, remote), true
}

// render bridges one request frame and encodes the response frame.
func (s *Server) render(h message.FrameHeader, frame []byte, remote string) []byte {
	switch h.Kind {
	case message.FrameBatch:
		// The frame IS the /batch body — no re-encode on either side.
		status, body := s.bridge(message.BatchPath, frame, remote)
		if status == http.StatusOK && message.IsFrame(body) {
			return body
		}
		return message.AppendErrorFrame(nil, h.Epoch, status, errText(body))
	case message.FrameSingle, message.FrameTelemetry:
		_, entries, err := message.DecodeBatchFrame(frame)
		if err != nil {
			return message.AppendErrorFrame(nil, h.Epoch, http.StatusBadRequest, "bad frame")
		}
		e := entries[0]
		// A telemetry frame's kind IS its route; a single frame's entry
		// carries the per-message path it stands for.
		path := message.TelemetryPath
		if h.Kind == message.FrameSingle {
			var ok bool
			if path, ok = message.BatchKindPath(e.Kind); !ok {
				return message.AppendErrorFrame(nil, h.Epoch, http.StatusBadRequest, "bad entry kind")
			}
		}
		status, body := s.bridge(path, e.Body, remote)
		resp, err := message.AppendBatchFrame(nil, h.Kind, h.Epoch,
			[]message.BatchEntry{{ID: e.ID, Status: status, Body: body}})
		if err != nil {
			return message.AppendErrorFrame(nil, h.Epoch, http.StatusInternalServerError, "encode response")
		}
		return resp
	default:
		return message.AppendErrorFrame(nil, h.Epoch, http.StatusBadRequest, "bad frame kind")
	}
}

// bridge synthesizes an in-memory POST against the node's handler stack.
func (s *Server) bridge(path string, body []byte, remote string) (int, []byte) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return http.StatusInternalServerError, nil
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.RemoteAddr = remote
	rec := &respRecorder{}
	s.h.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.status, rec.buf.Bytes()
}

// errText renders an HTTP error body as constant-class frame text (the
// handlers emit one-line class strings via http.Error).
func errText(body []byte) string {
	return strings.TrimSpace(string(body))
}

// respRecorder is the minimal in-memory http.ResponseWriter behind the
// bridge.
type respRecorder struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

func (r *respRecorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}
