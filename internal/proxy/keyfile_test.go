package proxy

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"

	"pprox/internal/ppcrypto"
)

func testLayerKeysPair(t *testing.T) (*LayerKeys, *LayerKeys) {
	t.Helper()
	f := newFixture(t) // reuse the slow-to-generate shared keys
	return f.uaKeys, f.iaKeys
}

func TestKeyFileRoundTrip(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	gotUA, gotIA, err := UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !gotUA.Pair.Private.Equal(ua.Pair.Private) {
		t.Error("UA private key round trip mismatch")
	}
	if !gotIA.Pair.Private.Equal(ia.Pair.Private) {
		t.Error("IA private key round trip mismatch")
	}
	if string(gotUA.Permanent) != string(ua.Permanent) || string(gotIA.Permanent) != string(ia.Permanent) {
		t.Error("permanent key round trip mismatch")
	}
}

func TestKeyFileInterops(t *testing.T) {
	// A pseudonym computed with the original keys must equal one
	// computed with the round-tripped keys (provisioning different
	// instances from the file yields one consistent layer).
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	gotUA, _, err := UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ppcrypto.Pseudonymize(ua.Permanent, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ppcrypto.Pseudonymize(gotUA.Permanent, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(p2) {
		t.Error("round-tripped keys produce different pseudonyms")
	}
}

func TestKeyFileRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", "{"},
		{"bad base64 private", `{"ua":{"private_key_der":"!!","permanent_key":"AAAA"},"ia":{"private_key_der":"!!","permanent_key":"AAAA"}}`},
		{"bad der", `{"ua":{"private_key_der":"AAAA","permanent_key":"AAAA"},"ia":{"private_key_der":"AAAA","permanent_key":"AAAA"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := UnmarshalKeyFile([]byte(tc.data)); err == nil {
				t.Error("malformed key file accepted")
			}
		})
	}
}

func TestKeyFileRejectsShortPermanentKey(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	var kf KeyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		t.Fatal(err)
	}
	kf.UA.PermanentKey = "AAAA" // 3 bytes
	bad, err := json.Marshal(kf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalKeyFile(bad); err == nil || !strings.Contains(err.Error(), "permanent key") {
		t.Errorf("short permanent key accepted: %v", err)
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBundleFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.UAPublic.Equal(ua.Pair.Public) || !got.IAPublic.Equal(ia.Pair.Public) {
		t.Error("bundle round trip mismatch")
	}
}

func TestBundleFileContainsNoSecrets(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	// Neither a private key nor a permanent key may appear in the
	// client-side bundle, raw or base64.
	for _, secret := range [][]byte{ua.Permanent, ua.Pair.Private.Bytes(), ia.Permanent, ia.Pair.Private.Bytes()} {
		if strings.Contains(string(data), string(secret)) ||
			strings.Contains(string(data), base64.StdEncoding.EncodeToString(secret)) {
			t.Error("secret key material in the public bundle")
		}
	}
}

func TestBundleFileRejectsMalformed(t *testing.T) {
	for _, data := range []string{"{", `{"ua_public_der":"!!","ia_public_der":"AAAA"}`, `{"ua_public_der":"AAAA","ia_public_der":"AAAA"}`} {
		if _, err := UnmarshalBundleFile([]byte(data)); err == nil {
			t.Errorf("malformed bundle accepted: %s", data)
		}
	}
}

// TestRSAEraFilesRejectedWithRegenerateHint feeds key and bundle files
// holding RSA keys, as written before the X25519 suite: both must fail
// and tell the operator to regenerate them with pprox-keygen.
func TestRSAEraFilesRejectedWithRegenerateHint(t *testing.T) {
	rsaKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	privDER, err := x509.MarshalPKCS8PrivateKey(rsaKey)
	if err != nil {
		t.Fatal(err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&rsaKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	perm := base64.StdEncoding.EncodeToString(make([]byte, ppcrypto.SymmetricKeySize))
	layer := LayerKeyJSON{PrivateKeyDER: base64.StdEncoding.EncodeToString(privDER), PermanentKey: perm}
	keyFile, err := json.Marshal(KeyFile{UA: layer, IA: layer})
	if err != nil {
		t.Fatal(err)
	}
	pub := base64.StdEncoding.EncodeToString(pubDER)
	bundleFile, err := json.Marshal(BundleFile{UAPublicDER: pub, IAPublicDER: pub})
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := UnmarshalKeyFile(keyFile); err == nil || !strings.Contains(err.Error(), "pprox-keygen") {
		t.Errorf("RSA-era key file: err = %v, want a regenerate-with-pprox-keygen error", err)
	}
	if _, err := UnmarshalBundleFile(bundleFile); err == nil || !strings.Contains(err.Error(), "pprox-keygen") {
		t.Errorf("RSA-era bundle file: err = %v, want a regenerate-with-pprox-keygen error", err)
	}
}
