package eventloop_test

import (
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/eventloop"
	"pprox/internal/hopwire"
	"pprox/internal/proxy"
	"pprox/internal/stub"
	"pprox/internal/transport"
)

// TestServerFrontsProxyLayer runs a full PProx stack with the UA layer
// served by the §5 architecture: the eventloop server is a drop-in for
// net/http on the client edge, while the IA and LRS listeners speak
// hopwire frames.
func TestServerFrontsProxyLayer(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	uaEncl := proxy.NewUAEnclave(platform)
	iaEncl := proxy.NewIAEnclave(platform, proxy.IAOptions{})
	uaKeys, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	iaKeys, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := uaKeys.Provision(as, uaEncl, proxy.UAIdentity); err != nil {
		t.Fatal(err)
	}
	if err := iaKeys.Provision(as, iaEncl, proxy.IAIdentity); err != nil {
		t.Fatal(err)
	}

	names := []string{"item-a", "item-b"}
	pseudo, err := iaKeys.PseudonymizeItems(names)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stub.NewWithItems(pseudo)
	if err != nil {
		t.Fatal(err)
	}
	lrsL, err := n.Listen("lrs")
	if err != nil {
		t.Fatal(err)
	}
	defer hopwire.ServeHTTPAndFrames(lrsL, st)()

	httpClient := transport.HTTPClient(n, 10*time.Second)
	ia, err := proxy.New(proxy.Config{Role: proxy.RoleIA, Enclave: iaEncl, Next: "http://lrs", HTTPClient: httpClient, HopDialer: n})
	if err != nil {
		t.Fatal(err)
	}
	iaL, err := n.Listen("ia")
	if err != nil {
		t.Fatal(err)
	}
	defer hopwire.ServeHTTPAndFrames(iaL, ia)()

	ua, err := proxy.New(proxy.Config{Role: proxy.RoleUA, Enclave: uaEncl, Next: "http://ia", HTTPClient: httpClient, HopDialer: n})
	if err != nil {
		t.Fatal(err)
	}
	uaL, err := n.Listen("ua")
	if err != nil {
		t.Fatal(err)
	}
	srv := &eventloop.Server{Handler: ua, Workers: 2}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(uaL) }()
	defer func() {
		srv.Close(uaL)
		<-serveDone
	}()

	cl := client.New(proxy.Bundle(uaKeys, iaKeys), httpClient, "http://ua")
	ctx := t.Context()
	if err := cl.Post(ctx, "alice", "item-a", ""); err != nil {
		t.Fatalf("post through eventloop-served UA: %v", err)
	}
	items, err := cl.Get(ctx, "alice")
	if err != nil {
		t.Fatalf("get through eventloop-served UA: %v", err)
	}
	if len(items) != 2 || items[0] != "item-a" {
		t.Errorf("items = %v", items)
	}
}
