package proxy

import (
	"bytes"
	"errors"
	"io"
	"sync"
)

// ErrBodyTooLarge reports a body longer than the caller's limit. It is an
// explicit rejection, not a truncation: a silently cut body would decode
// as garbage downstream or, worse, pass a truncated padded block through
// the pipeline as if it were well-formed.
var ErrBodyTooLarge = errors.New("proxy: body exceeds size limit")

// bodyPool recycles the scratch buffers behind every body read on the hot
// path (client requests on the UA, bridged frames on the IA). A bare
// io.ReadAll grows a fresh chain of ever-larger slices per message; at
// high S that churn dominates the allocation profile.
// Pooled buffers keep their grown capacity across messages; only the
// final right-sized copy escapes.
var bodyPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// readBody reads r to EOF through a pooled buffer and returns a fresh
// copy the caller may retain; the scratch buffer never escapes the pool.
// A body longer than limit is rejected with ErrBodyTooLarge — the read
// takes limit+1 bytes so overflow is detected instead of truncated.
func readBody(r io.Reader, limit int64) ([]byte, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyPool.Put(buf)
	}()
	n, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, ErrBodyTooLarge
	}
	return append([]byte(nil), buf.Bytes()...), nil
}
