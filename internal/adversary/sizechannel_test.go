package adversary_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// sizechannel_test.go is the DESIGN.md §4 padding ablation: §4.3 requires
// every encrypted message to have constant size. Without the fixed-size
// item-list codec, the ciphertext length of a get response leaks the
// number of recommendations — a side channel an observer can use to
// distinguish users (e.g. cold-start users receive shorter lists).

// encryptWithoutPadding models the ablated design: serialize exactly the
// items present and encrypt.
func encryptWithoutPadding(t *testing.T, key []byte, items []string) []byte {
	t.Helper()
	raw, err := message.Marshal(message.LRSGetResponse{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ppcrypto.SymEncrypt(key, raw)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func encryptWithPadding(t *testing.T, key []byte, items []string) []byte {
	t.Helper()
	packed, err := message.EncodeItemList(items)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ppcrypto.SymEncrypt(key, packed)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func lists() [][]string {
	cold := []string{}
	light := []string{"item-000001", "item-000002", "item-000003"}
	heavy := make([]string, message.MaxRecommendations)
	for i := range heavy {
		heavy[i] = "item-00000" + string(rune('a'+i%26))
	}
	return [][]string{cold, light, heavy}
}

func TestSizeChannelExistsWithoutPadding(t *testing.T) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, l := range lists() {
		sizes[len(encryptWithoutPadding(t, key, l))] = true
	}
	if len(sizes) < 2 {
		t.Error("ablation broken: unpadded responses do not differ in size")
	}
}

func TestPaddingClosesSizeChannel(t *testing.T) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, l := range lists() {
		sizes[len(encryptWithPadding(t, key, l))] = true
	}
	if len(sizes) != 1 {
		t.Errorf("padded response sizes vary: %v — the §4.3 size channel is open", sizes)
	}
}

// TestSizeClassifierAblation quantifies the channel: a trivial classifier
// (exact ciphertext length) distinguishes cold-start from heavy users with
// 100% accuracy on the ablated design and chance-level on PProx's.
func TestSizeClassifierAblation(t *testing.T) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	cold := []string{}
	heavy := lists()[2]

	classify := func(enc func(*testing.T, []byte, []string) []byte) (distinguished bool) {
		coldLen := len(enc(t, key, cold))
		heavyLen := len(enc(t, key, heavy))
		return coldLen != heavyLen
	}
	if !classify(encryptWithoutPadding) {
		t.Error("ablation broken: classifier cannot use the unpadded channel")
	}
	if classify(encryptWithPadding) {
		t.Error("padded design distinguishable by size")
	}
}

// sizeTap is the edge adversary's view of client→UA requests: the path
// (request kind) and body length of every request, nothing else.
type sizeTap struct {
	next http.RoundTripper
	mu   sync.Mutex
	seen map[string]map[int]bool // path → body lengths
}

func (st *sizeTap) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	st.mu.Lock()
	if st.seen[r.URL.Path] == nil {
		st.seen[r.URL.Path] = map[int]bool{}
	}
	st.seen[r.URL.Path][len(body)] = true
	st.mu.Unlock()
	return st.next.RoundTrip(r)
}

// TestEdgeBodiesHaveOneSizePerKind taps the client→UA link while users
// and items of every identifier length post and get: under the sealed
// suite every post body and every get body must have one size each, so a
// size classifier on the edge learns the request kind and nothing more.
func TestEdgeBodiesHaveOneSizePerKind(t *testing.T) {
	st := newTappedStack(t, 0)
	base := transport.HTTPClient(st.net, 10*time.Second)
	tap := &sizeTap{next: base.Transport, seen: map[string]map[int]bool{}}
	cl := client.New(proxy.Bundle(st.uaKeys, st.iaKeys), &http.Client{Transport: tap, Timeout: base.Timeout}, "http://ua")

	ctx := context.Background()
	for _, n := range []int{1, 7, 30, ppcrypto.IDBlockSize - 2} {
		user, item := strings.Repeat("u", n), strings.Repeat("i", n)
		if err := cl.Post(ctx, user, item, ""); err != nil {
			t.Fatalf("post (%d-byte ids): %v", n, err)
		}
		if _, err := cl.Get(ctx, user); err != nil {
			t.Fatalf("get (%d-byte id): %v", n, err)
		}
	}
	for _, path := range []string{message.EventsPath, message.QueriesPath} {
		if sizes := tap.seen[path]; len(sizes) != 1 {
			t.Errorf("%s: edge body sizes %v — the §4.3 size channel is open", path, sizes)
		}
	}
}
