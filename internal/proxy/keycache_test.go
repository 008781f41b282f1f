package proxy_test

import (
	"slices"
	"sort"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/proxy"
	"pprox/internal/rotation"
	"pprox/internal/transport"
)

// TestRotationLeavesOnlyCurrentParsedKeys checks the enclaves' parsed-key
// cache across a breach rotation on a two-tenant deployment: each enclave
// holds exactly one parsed private key per tenant, re-provisioning drops
// the old ones, and a field sealed to a rotated-out public key no longer
// opens at either layer.
func TestRotationLeavesOnlyCurrentParsedKeys(t *testing.T) {
	tenants := []string{"shop", "forum"}
	st := newTenantStack(t, tenants)
	ctx := ctxT(t)
	traffic := func(clients map[string]*client.Client) {
		t.Helper()
		for tenant, cl := range clients {
			if err := cl.Post(ctx, "alice", "item-"+tenant, ""); err != nil {
				t.Fatalf("%s post: %v", tenant, err)
			}
			if _, err := cl.Get(ctx, "alice"); err != nil {
				t.Fatalf("%s get: %v", tenant, err)
			}
		}
	}
	traffic(st.clients)
	assertParsedKeys(t, "UA", st.uaEncl, st.keysUA)
	assertParsedKeys(t, "IA", st.iaEncl, st.keysIA)

	oldUA, oldIA := st.keysUA["shop"], st.keysIA["shop"]
	ua, err := rotation.RotateKeys(rotation.LayerUA, oldUA, st.engines["shop"])
	if err != nil {
		t.Fatal(err)
	}
	ia, err := rotation.RotateKeys(rotation.LayerIA, oldIA, st.engines["shop"])
	if err != nil {
		t.Fatal(err)
	}
	st.keysUA["shop"], st.keysIA["shop"] = ua.Fresh, ia.Fresh
	if err := proxy.ProvisionTenants(st.as, st.uaEncl, proxy.UAIdentity, st.keysUA); err != nil {
		t.Fatal(err)
	}
	if err := proxy.ProvisionTenants(st.as, st.iaEncl, proxy.IAIdentity, st.keysIA); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*enclave.Enclave{"UA": st.uaEncl, "IA": st.iaEncl} {
		if names := e.ParsedSecretNames(); len(names) != 0 {
			t.Errorf("%s: parsed keys %v survived re-provisioning", name, names)
		}
	}

	base := client.New(proxy.PublicBundle{}, transport.HTTPClient(st.net, 10*time.Second), "http://ua")
	stale := map[string]proxy.PublicBundle{
		"old UA key": proxy.Bundle(oldUA, ia.Fresh),
		"old IA key": proxy.Bundle(ua.Fresh, oldIA),
	}
	for name, bundle := range stale {
		if err := base.ForTenant("shop", bundle).Post(ctx, "alice", "item-shop", ""); err == nil {
			t.Errorf("post sealed with the rotated-out %s was accepted", name)
		}
	}

	st.clients["shop"] = base.ForTenant("shop", proxy.Bundle(ua.Fresh, ia.Fresh))
	traffic(st.clients)
	assertParsedKeys(t, "UA", st.uaEncl, st.keysUA)
	assertParsedKeys(t, "IA", st.iaEncl, st.keysIA)
}

// assertParsedKeys checks that an enclave's parsed-key cache holds exactly
// one entry per tenant, its private key. The cache is per provisioning, so
// after re-provisioning these entries can only have come from the current
// keys; that the current keys are the ones in use shows behaviourally.
func assertParsedKeys(t *testing.T, layer string, e *enclave.Enclave, keys map[string]*proxy.LayerKeys) {
	t.Helper()
	var want []string
	for tenant := range keys {
		want = append(want, proxy.TenantSecret(proxy.SecretPrivateKey, tenant))
	}
	sort.Strings(want)
	if got := e.ParsedSecretNames(); !slices.Equal(got, want) {
		t.Errorf("%s: parsed secrets %v, want one private key per tenant %v", layer, got, want)
	}
}
