package proxy

import (
	"net/http"
	"testing"

	"pprox/internal/transport"
)

// Regression: a Layer built without an HTTP client used to fall back to
// http.DefaultClient, which has no timeout — one hung next hop would pin a
// request goroutine forever. The default must be the bounded transport
// client.
func TestNewDefaultsToBoundedClient(t *testing.T) {
	l, err := New(Config{Role: RoleUA, PassThrough: true, Next: "http://next", HopDialer: transport.NewNetwork()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.cfg.HTTPClient == http.DefaultClient {
		t.Fatal("New fell back to the unbounded http.DefaultClient")
	}
	if l.cfg.HTTPClient.Timeout <= 0 {
		t.Error("default HTTP client has no overall timeout")
	}
}

// Without a resilience policy a layer makes exactly one attempt and arms
// no breaker — the seed behaviour, so existing deployments see no retries
// they did not ask for.
func TestNewWithoutPolicyIsSingleAttempt(t *testing.T) {
	l, err := New(Config{Role: RoleIA, PassThrough: true, Next: "http://next", HopDialer: transport.NewNetwork()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.policy.MaxAttempts != 1 {
		t.Errorf("MaxAttempts = %d without a policy, want 1", l.policy.MaxAttempts)
	}
	if l.Breaker() != nil {
		t.Error("breaker armed without a policy")
	}
}
