package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// handlers_test.go exercises the enclave ECALL handlers directly, without
// the HTTP plumbing: crafted ciphertexts in, transformed messages out.

type layerFixture struct {
	as     *enclave.AttestationService
	uaEncl *enclave.Enclave
	iaEncl *enclave.Enclave
	uaKeys *LayerKeys
	iaKeys *LayerKeys
}

// Key generation is slow; share one fixture per test binary and rebuild
// only enclaves per test when needed.
var (
	fixtureOnce sync.Once
	fixture     *layerFixture
	fixtureErr  error
)

func newFixture(t *testing.T) *layerFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		f := &layerFixture{}
		if f.as, fixtureErr = enclave.NewAttestationService(); fixtureErr != nil {
			return
		}
		platform := enclave.NewPlatform(f.as)
		f.uaEncl = NewUAEnclave(platform)
		f.iaEncl = NewIAEnclave(platform, IAOptions{})
		if f.uaKeys, fixtureErr = NewLayerKeys(); fixtureErr != nil {
			return
		}
		if f.iaKeys, fixtureErr = NewLayerKeys(); fixtureErr != nil {
			return
		}
		if fixtureErr = f.uaKeys.Provision(f.as, f.uaEncl, UAIdentity); fixtureErr != nil {
			return
		}
		fixtureErr = f.iaKeys.Provision(f.as, f.iaEncl, IAIdentity)
		fixture = f
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func (f *layerFixture) encFor(t *testing.T, keys *LayerKeys, id string) string {
	t.Helper()
	block, err := ppcrypto.PadID(id)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ppcrypto.Seal(keys.Pair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	return message.Encode64(ct)
}

func (f *layerFixture) pseudonym(t *testing.T, keys *LayerKeys, id string) string {
	t.Helper()
	p, err := ppcrypto.Pseudonymize(keys.Permanent, id)
	if err != nil {
		t.Fatal(err)
	}
	return message.Encode64(p)
}

func TestUAPostEcallPseudonymizesUserOnly(t *testing.T) {
	f := newFixture(t)
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.encFor(t, f.uaKeys, "alice"),
		EncItem: f.encFor(t, f.iaKeys, "dune"),
		Payload: "4.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.uaEncl.Ecall("ua/post", in)
	if err != nil {
		t.Fatalf("ua/post: %v", err)
	}
	var got message.PostRequest
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.EncUser != f.pseudonym(t, f.uaKeys, "alice") {
		t.Error("EncUser is not det_enc(u, kUA)")
	}
	var orig message.PostRequest
	if err := message.Unmarshal(in, &orig); err != nil {
		t.Fatal(err)
	}
	if got.EncItem != orig.EncItem {
		t.Error("UA layer modified the item field it must not be able to read")
	}
	if got.Payload != "4.5" {
		t.Error("payload not forwarded")
	}
}

func TestUAGetEcallPreservesTempKey(t *testing.T) {
	f := newFixture(t)
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	encKu, err := ppcrypto.Seal(f.iaKeys.Pair.Public, ku)
	if err != nil {
		t.Fatal(err)
	}
	in, err := message.Marshal(message.GetRequest{
		EncUser:    f.encFor(t, f.uaKeys, "bob"),
		EncTempKey: message.Encode64(encKu),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.uaEncl.Ecall("ua/get", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.GetRequest
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.EncUser != f.pseudonym(t, f.uaKeys, "bob") {
		t.Error("user not pseudonymized")
	}
	if got.EncTempKey != message.Encode64(encKu) {
		t.Error("temp key field modified by the UA layer")
	}
}

func TestUAEcallRejectsBadInput(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"not base64", `{"enc_user":"!!!","enc_item":"AAAA"}`},
		{"wrong size ciphertext", `{"enc_user":"AAAA","enc_item":"AAAA"}`},
		{"garbage ciphertext", fmt.Sprintf(`{"enc_user":%q,"enc_item":"AAAA"}`,
			message.Encode64(make([]byte, ppcrypto.SealedIDSize)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := f.uaEncl.Ecall("ua/post", []byte(tc.body)); !errors.Is(err, errEnclave) {
				t.Errorf("err = %v, want errEnclave", err)
			}
		})
	}
}

// TestOpenFailuresMapToErrEnclave drives every way ppcrypto.Open can
// reject a sealed field through both enclaves' ECALLs: the host must see
// errEnclave and nothing finer, whichever check failed.
func TestOpenFailuresMapToErrEnclave(t *testing.T) {
	f := newFixture(t)
	seal := func(keys *LayerKeys, pt []byte) []byte {
		ct, err := ppcrypto.Seal(keys.Pair.Public, pt)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	block, err := ppcrypto.PadID("alice")
	if err != nil {
		t.Fatal(err)
	}
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	lowOrder := append([]byte{1}, make([]byte, 31)...)
	parked := f.iaEncl.KV().Len()
	corrupt := map[string]func(ct []byte) []byte{
		"wrong length":  func(ct []byte) []byte { return ct[:ppcrypto.SealOverhead-1] },
		"truncated":     func(ct []byte) []byte { return ct[:len(ct)-1] },
		"all-zero enc":  func(ct []byte) []byte { copy(ct, make([]byte, 32)); return ct },
		"low-order enc": func(ct []byte) []byte { copy(ct, lowOrder); return ct },
		"failed tag":    func(ct []byte) []byte { ct[len(ct)-1] ^= 1; return ct },
	}
	for name, mangle := range corrupt {
		t.Run("ua/"+name, func(t *testing.T) {
			in, err := message.Marshal(message.GetRequest{
				EncUser:    message.Encode64(mangle(seal(f.uaKeys, block))),
				EncTempKey: message.Encode64(seal(f.iaKeys, ku)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.uaEncl.Ecall("ua/get", in); !errors.Is(err, errEnclave) {
				t.Errorf("err = %v, want errEnclave", err)
			}
		})
		t.Run("ia/"+name, func(t *testing.T) {
			body, err := message.Marshal(message.GetRequest{
				EncUser:    f.pseudonym(t, f.uaKeys, "alice"),
				EncTempKey: message.Encode64(mangle(seal(f.iaKeys, ku))),
			})
			if err != nil {
				t.Fatal(err)
			}
			framed, err := message.Marshal(iaGetCall{Handle: "h-open-" + name, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.iaEncl.Ecall("ia/get", framed); !errors.Is(err, errEnclave) {
				t.Errorf("err = %v, want errEnclave", err)
			}
		})
	}
	if f.iaEncl.KV().Len() != parked {
		t.Error("a rejected request parked a temporary key")
	}
}

func TestUARejectsCiphertextForWrongLayer(t *testing.T) {
	// A user field encrypted for the IA layer must not decrypt at the UA.
	f := newFixture(t)
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.encFor(t, f.iaKeys, "alice"), // wrong key on purpose
		EncItem: f.encFor(t, f.iaKeys, "dune"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.uaEncl.Ecall("ua/post", in); !errors.Is(err, errEnclave) {
		t.Fatalf("err = %v, want errEnclave", err)
	}
}

func TestIAPostEcallProducesLRSPseudonyms(t *testing.T) {
	f := newFixture(t)
	userPseudo := f.pseudonym(t, f.uaKeys, "alice")
	in, err := message.Marshal(message.PostRequest{
		EncUser: userPseudo, // already rewritten by the UA layer
		EncItem: f.encFor(t, f.iaKeys, "dune"),
		Payload: "3.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.iaEncl.Ecall("ia/post", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.LRSPost
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.User != userPseudo {
		t.Error("IA layer altered the opaque user pseudonym")
	}
	if got.Item != f.pseudonym(t, f.iaKeys, "dune") {
		t.Error("item is not det_enc(i, kIA)")
	}
	if strings.Contains(string(out), "dune") {
		t.Error("cleartext item leaked to the LRS message")
	}
	if got.Payload != "3.0" {
		t.Error("payload dropped")
	}
}

func TestIAPostWithItemPseudonymizationDisabled(t *testing.T) {
	f := newFixture(t)
	platform := enclave.NewPlatform(f.as)
	ia := NewIAEnclave(platform, IAOptions{DisableItemPseudonymization: true})
	if err := f.iaKeys.Provision(f.as, ia, IAIdentityNoItemPseudonyms); err != nil {
		t.Fatal(err)
	}
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.pseudonym(t, f.uaKeys, "alice"),
		EncItem: f.encFor(t, f.iaKeys, "dune"),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ia.Ecall("ia/post", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.LRSPost
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Item != "dune" {
		t.Errorf("item = %q, want cleartext with pseudonymization disabled (§6.3)", got.Item)
	}
}

func TestIAGetRoundTripThroughKV(t *testing.T) {
	f := newFixture(t)
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	encKu, err := ppcrypto.Seal(f.iaKeys.Pair.Public, ku)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "carol"),
		EncTempKey: message.Encode64(encKu),
	})
	if err != nil {
		t.Fatal(err)
	}
	framed, err := message.Marshal(iaGetCall{Handle: "h-1", Body: reqBody})
	if err != nil {
		t.Fatal(err)
	}
	lrsReq, err := f.iaEncl.Ecall("ia/get", framed)
	if err != nil {
		t.Fatalf("ia/get: %v", err)
	}
	var lrsGet message.LRSGet
	if err := message.Unmarshal(lrsReq, &lrsGet); err != nil {
		t.Fatal(err)
	}
	if lrsGet.User != f.pseudonym(t, f.uaKeys, "carol") {
		t.Error("LRS get does not carry the user pseudonym")
	}
	if strings.Contains(string(lrsReq), "enc_temp_key") {
		t.Error("temp key leaked toward the LRS")
	}
	if f.iaEncl.KV().Len() != 1 {
		t.Fatalf("KV holds %d entries, want the parked k_u", f.iaEncl.KV().Len())
	}

	// LRS answers with pseudonymized items; the response ECALL must
	// de-pseudonymize and re-encrypt under k_u, consuming the handle.
	lrsResp, err := message.Marshal(message.LRSGetResponse{
		Items: []string{f.pseudonym(t, f.iaKeys, "dune"), f.pseudonym(t, f.iaKeys, "hyperion")},
	})
	if err != nil {
		t.Fatal(err)
	}
	framedResp, err := message.Marshal(iaGetCall{Handle: "h-1", Body: lrsResp})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
	if err != nil {
		t.Fatalf("ia/get-response: %v", err)
	}
	var resp message.GetResponse
	if err := message.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	ct, err := message.Decode64(resp.EncItems)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ppcrypto.SymDecrypt(ku, ct)
	if err != nil {
		t.Fatal(err)
	}
	items, err := message.DecodeItemList(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0] != "dune" || items[1] != "hyperion" {
		t.Errorf("items = %v", items)
	}
	if f.iaEncl.KV().Len() != 0 {
		t.Error("k_u not consumed from the KV store")
	}

	// Replaying the response (same handle) must fail: k_u is gone.
	if _, err := f.iaEncl.Ecall("ia/get-response", framedResp); !errors.Is(err, errEnclave) {
		t.Errorf("replayed response accepted: err = %v", err)
	}
}

func TestIAGetRejectsWrongSizeTempKey(t *testing.T) {
	f := newFixture(t)
	// Encrypt a 16-byte blob as the "temp key": must be rejected.
	short, err := ppcrypto.Seal(f.iaKeys.Pair.Public, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "x"),
		EncTempKey: message.Encode64(short),
	})
	if err != nil {
		t.Fatal(err)
	}
	framed, err := message.Marshal(iaGetCall{Handle: "h-bad", Body: reqBody})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.iaEncl.Ecall("ia/get", framed); !errors.Is(err, errEnclave) {
		t.Fatalf("err = %v, want errEnclave", err)
	}
	if f.iaEncl.KV().Len() != 0 {
		t.Error("rejected request still parked a key")
	}
}

func TestIAGetResponseTruncatesOversizedLists(t *testing.T) {
	f := newFixture(t)
	ku, _ := ppcrypto.NewSymmetricKey()
	encKu, _ := ppcrypto.Seal(f.iaKeys.Pair.Public, ku)
	reqBody, _ := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "y"),
		EncTempKey: message.Encode64(encKu),
	})
	framed, _ := message.Marshal(iaGetCall{Handle: "h-big", Body: reqBody})
	if _, err := f.iaEncl.Ecall("ia/get", framed); err != nil {
		t.Fatal(err)
	}

	items := make([]string, message.MaxRecommendations+5)
	for i := range items {
		items[i] = f.pseudonym(t, f.iaKeys, fmt.Sprintf("item-%d", i))
	}
	lrsResp, _ := message.Marshal(message.LRSGetResponse{Items: items})
	framedResp, _ := message.Marshal(iaGetCall{Handle: "h-big", Body: lrsResp})
	out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
	if err != nil {
		t.Fatalf("oversized LRS list: %v", err)
	}
	var resp message.GetResponse
	if err := message.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	ct, _ := message.Decode64(resp.EncItems)
	packed, err := ppcrypto.SymDecrypt(ku, ct)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := message.DecodeItemList(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != message.MaxRecommendations {
		t.Errorf("returned %d items, want cap %d", len(decoded), message.MaxRecommendations)
	}
}

func TestIAGetResponseConstantSize(t *testing.T) {
	// §4.3: the encrypted response has constant size whether the LRS
	// returned 1 or 20 items.
	f := newFixture(t)
	sizes := map[int]bool{}
	for _, n := range []int{1, 7, message.MaxRecommendations} {
		ku, _ := ppcrypto.NewSymmetricKey()
		encKu, _ := ppcrypto.Seal(f.iaKeys.Pair.Public, ku)
		reqBody, _ := message.Marshal(message.GetRequest{
			EncUser:    f.pseudonym(t, f.uaKeys, "z"),
			EncTempKey: message.Encode64(encKu),
		})
		handle := fmt.Sprintf("h-size-%d", n)
		framed, _ := message.Marshal(iaGetCall{Handle: handle, Body: reqBody})
		if _, err := f.iaEncl.Ecall("ia/get", framed); err != nil {
			t.Fatal(err)
		}
		items := make([]string, n)
		for i := range items {
			items[i] = f.pseudonym(t, f.iaKeys, fmt.Sprintf("i%d", i))
		}
		lrsResp, _ := message.Marshal(message.LRSGetResponse{Items: items})
		framedResp, _ := message.Marshal(iaGetCall{Handle: handle, Body: lrsResp})
		out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
		if err != nil {
			t.Fatal(err)
		}
		var resp message.GetResponse
		if err := message.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		sizes[len(resp.EncItems)] = true
	}
	if len(sizes) != 1 {
		t.Errorf("response sizes vary with item count: %v", sizes)
	}
}

func TestIAIdentityForVariants(t *testing.T) {
	if IAIdentityFor(IAOptions{}) != IAIdentity {
		t.Error("default options must map to the standard identity")
	}
	if IAIdentityFor(IAOptions{DisableItemPseudonymization: true}) != IAIdentityNoItemPseudonyms {
		t.Error("disabled pseudonymization must map to its own measured identity")
	}
	if enclave.Measure(IAIdentity) == enclave.Measure(IAIdentityNoItemPseudonyms) {
		t.Error("the two IA variants share a measurement; attestation could not tell them apart")
	}
}

func TestIAGetCallFrameRoundTrip(t *testing.T) {
	body := json.RawMessage(`{"enc_user":"AAA"}`)
	framed, err := message.Marshal(iaGetCall{Handle: "h", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	var got iaGetCall
	if err := message.Unmarshal(framed, &got); err != nil {
		t.Fatal(err)
	}
	if got.Handle != "h" || string(got.Body) != string(body) {
		t.Errorf("frame round trip: %+v", got)
	}
}
