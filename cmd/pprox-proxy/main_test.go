package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
)

// An IA's listener must speak hopwire frames — every UA→IA message rides
// one — and the eventloop server only speaks HTTP, so -eventloop is
// refused on the IA role before anything is started.
func TestEventloopRefusedOnIA(t *testing.T) {
	o := options{role: "ia", next: "http://127.0.0.1:1", listen: "127.0.0.1:0", passthrough: true, useEventloop: true}
	err := run(o, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err == nil || !strings.Contains(err.Error(), "-eventloop") {
		t.Fatalf("run(-role ia -eventloop) = %v, want an -eventloop refusal", err)
	}
}
