package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"pprox/internal/hopwire"
	"pprox/internal/message"
	"pprox/internal/transport"
)

// Client pushes snapshots to a collector address over persistent hopwire
// frame connections, one FrameTelemetry frame per push.
type Client struct {
	hop *hopwire.Client

	pushes atomic.Uint64
	errs   atomic.Uint64
}

// NewClient builds a pusher for the collector at addr ("host:port").
func NewClient(d transport.Dialer, addr string) (*Client, error) {
	if addr == "" {
		return nil, errors.New("telemetry: client needs a collector address")
	}
	hop, err := hopwire.NewClient(d, addr)
	if err != nil {
		return nil, err
	}
	return &Client{hop: hop}, nil
}

// Push delivers one encoded snapshot.
func (c *Client) Push(ctx context.Context, body []byte) error {
	c.pushes.Add(1)
	status, _, err := c.hop.RoundTrip(ctx, message.TelemetryPath, body)
	if err == nil && status >= http.StatusMultipleChoices {
		err = fmt.Errorf("telemetry: collector returned %d", status)
	}
	if err != nil {
		c.errs.Add(1)
	}
	return err
}

// Stats reports transport counters for embedding in the next snapshot.
func (c *Client) Stats() TransportStats {
	hs := c.hop.Stats()
	return TransportStats{
		Pushes: c.pushes.Load(),
		Errors: c.errs.Load(),
		Dials:  hs.Dials,
		Reuses: hs.Reuses,
	}
}

// Close releases pooled frame connections.
func (c *Client) Close() {
	c.hop.Close()
}
