package ppcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// testKeyPair is generated once; the tests only need any valid pair.
var testKeyPair = mustGenerate()

func mustGenerate() *KeyPair {
	kp, err := GenerateKeyPair()
	if err != nil {
		panic(err)
	}
	return kp
}

func mustKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewSymmetricKey()
	if err != nil {
		t.Fatalf("NewSymmetricKey: %v", err)
	}
	return k
}

func TestPadUnpadRoundTrip(t *testing.T) {
	for _, id := range []string{"", "u", "user-42", strings.Repeat("x", IDBlockSize-2)} {
		block, err := PadID(id)
		if err != nil {
			t.Fatalf("PadID(%q): %v", id, err)
		}
		if len(block) != IDBlockSize {
			t.Fatalf("PadID(%q): block size %d, want %d", id, len(block), IDBlockSize)
		}
		got, err := UnpadID(block)
		if err != nil {
			t.Fatalf("UnpadID(PadID(%q)): %v", id, err)
		}
		if got != id {
			t.Errorf("round trip: got %q, want %q", got, id)
		}
	}
}

func TestPadIDTooLong(t *testing.T) {
	if _, err := PadID(strings.Repeat("x", IDBlockSize-1)); err == nil {
		t.Fatal("PadID accepted an identifier longer than the block")
	}
}

func TestUnpadIDRejectsMalformed(t *testing.T) {
	t.Run("wrong size", func(t *testing.T) {
		if _, err := UnpadID(make([]byte, IDBlockSize-1)); err == nil {
			t.Error("UnpadID accepted a short block")
		}
	})
	t.Run("length header beyond block", func(t *testing.T) {
		block := make([]byte, IDBlockSize)
		block[0] = 0xFF
		block[1] = 0xFF
		if _, err := UnpadID(block); err == nil {
			t.Error("UnpadID accepted an oversized length header")
		}
	})
	t.Run("nonzero padding", func(t *testing.T) {
		block, err := PadID("u")
		if err != nil {
			t.Fatal(err)
		}
		block[IDBlockSize-1] = 1
		if _, err := UnpadID(block); err == nil {
			t.Error("UnpadID accepted nonzero padding")
		}
	})
}

func TestPadIDProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > IDBlockSize-2 {
			raw = raw[:IDBlockSize-2]
		}
		id := string(raw)
		block, err := PadID(id)
		if err != nil {
			return false
		}
		got, err := UnpadID(block)
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	block, err := PadID("user-1")
	if err != nil {
		t.Fatal(err)
	}
	ku := mustKey(t)
	for _, tc := range []struct {
		name string
		pt   []byte
		size int
	}{{"identifier", block, SealedIDSize}, {"temporary key", ku, SealedKeySize}} {
		ct, err := Seal(testKeyPair.Public, tc.pt)
		if err != nil {
			t.Fatalf("%s: Seal: %v", tc.name, err)
		}
		if len(ct) != tc.size {
			t.Fatalf("%s: ciphertext size %d, want constant %d", tc.name, len(ct), tc.size)
		}
		pt, err := Open(testKeyPair.Private, ct)
		if err != nil {
			t.Fatalf("%s: Open: %v", tc.name, err)
		}
		if !bytes.Equal(pt, tc.pt) {
			t.Errorf("%s: round trip mismatch", tc.name)
		}
	}
}

// TestOAEPRoundTrip keeps the deprecated names working: external timing
// code still calls them, so each must interoperate with the suite.
func TestOAEPRoundTrip(t *testing.T) {
	block, err := PadID("user-1")
	if err != nil {
		t.Fatal(err)
	}
	viaOld, err := EncryptOAEP(testKeyPair.Public, block)
	if err != nil {
		t.Fatalf("EncryptOAEP: %v", err)
	}
	viaNew, err := Seal(testKeyPair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() ([]byte, error){
		"EncryptOAEP → Open": func() ([]byte, error) { return Open(testKeyPair.Private, viaOld) },
		"Seal → DecryptOAEP": func() ([]byte, error) { return DecryptOAEP(testKeyPair.Private, viaNew) },
	} {
		if pt, err := open(); err != nil || !bytes.Equal(pt, block) {
			t.Errorf("%s: (%x, %v), want the plaintext back", name, pt, err)
		}
	}
}

func TestSealIsRandomized(t *testing.T) {
	// §4.1: randomized encryption of the same identifier must yield
	// different ciphertexts, which is why it cannot serve as a pseudonym.
	block, err := PadID("user-1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Seal(testKeyPair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Seal(testKeyPair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("two seals of the same plaintext are identical")
	}
}

func TestOpenWrongKey(t *testing.T) {
	other, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	block, _ := PadID("user-1")
	ct, err := Seal(testKeyPair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(other.Private, ct); !errors.Is(err, ErrOpen) {
		t.Errorf("Open with the wrong private key: err = %v, want ErrOpen", err)
	}
}

// lowOrderPoints are X25519 public values whose shared secret with any
// key is all-zero; ECDH refuses them.
var lowOrderPoints = [][]byte{
	make([]byte, 32),                       // 0
	append([]byte{1}, make([]byte, 31)...), // 1
}

func TestOpenRejectsMalformed(t *testing.T) {
	block, _ := PadID("user-1")
	good, err := Seal(testKeyPair.Public, block)
	if err != nil {
		t.Fatal(err)
	}
	withEnc := func(enc []byte) []byte {
		ct := bytes.Clone(good)
		copy(ct, enc)
		return ct
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	cases := []struct {
		name string
		ct   []byte
		want error
	}{
		{"empty", nil, ErrCiphertextSize},
		{"shorter than the overhead", make([]byte, SealOverhead-1), ErrCiphertextSize},
		{"all-zero enc", withEnc(lowOrderPoints[0]), ErrOpen},
		{"low-order enc", withEnc(lowOrderPoints[1]), ErrOpen},
		{"flipped tag byte", flipped, ErrOpen},
		{"truncated", good[:len(good)-1], ErrOpen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(testKeyPair.Private, tc.ct); !errors.Is(err, tc.want) {
				t.Errorf("Open: err = %v, want %v", err, tc.want)
			}
		})
	}
}

// fixedX25519 builds a key from constant bytes, so every fuzz worker
// process agrees with the coordinator on the key and the seeds.
func fixedX25519(f *testing.F, b byte) *ecdh.PrivateKey {
	k, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		f.Fatal(err)
	}
	return k
}

// FuzzOpen feeds Open arbitrary bytes: it must never panic, and nothing
// but the one genuine seal may open. Recipient and ephemeral keys are
// fixed, so the genuine seal is the same bytes in every worker and the
// seeds stay one mutation away from right-key tag and ECDH rejection.
func FuzzOpen(f *testing.F) {
	priv := fixedX25519(f, 0x42)
	block, _ := PadID("user-1")
	good, err := sealWith(fixedX25519(f, 0x24), priv.PublicKey(), block)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	zeroEnc := bytes.Clone(good)
	copy(zeroEnc, lowOrderPoints[0])
	f.Add(make([]byte, SealedIDSize-1))
	f.Add(zeroEnc)
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, ct []byte) {
		pt, err := Open(priv, ct)
		if err == nil {
			if bytes.Equal(ct, good) && bytes.Equal(pt, block) {
				return
			}
			t.Fatalf("Open accepted %d fuzzed bytes (plaintext %x)", len(ct), pt)
		}
		if !errors.Is(err, ErrOpen) && !errors.Is(err, ErrCiphertextSize) {
			t.Fatalf("Open failed with an unexpected error: %v", err)
		}
	})
}

// TestHKDFSHA256Vector checks the key schedule's HKDF against RFC 5869
// test case 3 (SHA-256, empty salt and info).
func TestHKDFSHA256Vector(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	want, _ := hex.DecodeString("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	if got := hkdfSHA256(ikm, nil, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("hkdfSHA256 = %x, want %x", got, want)
	}
}

func TestDetEncryptIsDeterministic(t *testing.T) {
	key := mustKey(t)
	block, _ := PadID("item-9")
	a, err := DetEncrypt(key, block)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetEncrypt(key, block)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("deterministic encryption produced two different ciphertexts")
	}
	if bytes.Equal(a, block) {
		t.Error("deterministic encryption left the plaintext unchanged")
	}
}

func TestDetEncryptDistinctInputsDistinctOutputs(t *testing.T) {
	key := mustKey(t)
	a, _ := PadID("item-1")
	b, _ := PadID("item-2")
	ca, err := DetEncrypt(key, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := DetEncrypt(key, b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ca, cb) {
		t.Error("two distinct identifiers pseudonymize to the same value")
	}
}

func TestDetRoundTripProperty(t *testing.T) {
	key := mustKey(t)
	f := func(data []byte) bool {
		ct, err := DetEncrypt(key, data)
		if err != nil {
			return false
		}
		pt, err := DetDecrypt(key, ct)
		return err == nil && bytes.Equal(pt, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymEncryptIsRandomized(t *testing.T) {
	key := mustKey(t)
	msg := []byte("recommendations: i1,i2,i3")
	a, err := SymEncrypt(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SymEncrypt(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("randomized symmetric encryption produced identical ciphertexts")
	}
}

func TestSymRoundTripProperty(t *testing.T) {
	key := mustKey(t)
	f := func(data []byte) bool {
		ct, err := SymEncrypt(key, data)
		if err != nil {
			return false
		}
		pt, err := SymDecrypt(key, ct)
		return err == nil && bytes.Equal(pt, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymDecryptRejectsShortCiphertext(t *testing.T) {
	key := mustKey(t)
	if _, err := SymDecrypt(key, []byte{1, 2, 3}); err == nil {
		t.Error("SymDecrypt accepted a ciphertext shorter than the IV")
	}
}

func TestSymmetricKeySizeEnforced(t *testing.T) {
	if _, err := DetEncrypt([]byte("short"), make([]byte, IDBlockSize)); err == nil {
		t.Error("DetEncrypt accepted a short key")
	}
	if _, err := SymEncrypt([]byte("short"), []byte("x")); err == nil {
		t.Error("SymEncrypt accepted a short key")
	}
}

func TestPseudonymizeStableAndReversible(t *testing.T) {
	key := mustKey(t)
	p1, err := Pseudonymize(key, "user-7")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Pseudonymize(key, "user-7")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Error("pseudonym is not stable across calls")
	}
	id, err := Depseudonymize(key, p1)
	if err != nil {
		t.Fatal(err)
	}
	if id != "user-7" {
		t.Errorf("Depseudonymize: got %q, want %q", id, "user-7")
	}
}

func TestDepseudonymizeWrongKeyFailsOrGarbles(t *testing.T) {
	// With the wrong permanent key the padding check almost always
	// rejects the block; if it happens to parse, the identifier must
	// differ. Either way the adversary does not learn the cleartext.
	k1, k2 := mustKey(t), mustKey(t)
	p, err := Pseudonymize(k1, "user-7")
	if err != nil {
		t.Fatal(err)
	}
	id, err := Depseudonymize(k2, p)
	if err == nil && id == "user-7" {
		t.Error("wrong key recovered the cleartext identifier")
	}
}

func TestPseudonymProperty(t *testing.T) {
	key := mustKey(t)
	f := func(raw []byte) bool {
		if len(raw) > IDBlockSize-2 {
			raw = raw[:IDBlockSize-2]
		}
		id := string(raw)
		p, err := Pseudonymize(key, id)
		if err != nil {
			return false
		}
		got, err := Depseudonymize(key, p)
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyMarshalRoundTrip(t *testing.T) {
	pubDER, err := MarshalPublicKey(testKeyPair.Public)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := UnmarshalPublicKey(pubDER)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(testKeyPair.Public) {
		t.Error("public key round trip mismatch")
	}

	privDER, err := MarshalPrivateKey(testKeyPair.Private)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := UnmarshalPrivateKey(privDER)
	if err != nil {
		t.Fatal(err)
	}
	if !priv.Equal(testKeyPair.Private) {
		t.Error("private key round trip mismatch")
	}
}

func TestUnmarshalRejectsRSAKeys(t *testing.T) {
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
	if _, err := UnmarshalPrivateKey(privDER); !errors.Is(err, ErrKeySuite) {
		t.Errorf("UnmarshalPrivateKey(RSA): err = %v, want ErrKeySuite", err)
	}
	if _, err := UnmarshalPublicKey(pubDER); !errors.Is(err, ErrKeySuite) {
		t.Errorf("UnmarshalPublicKey(RSA): err = %v, want ErrKeySuite", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPublicKey([]byte("not DER")); err == nil {
		t.Error("UnmarshalPublicKey accepted garbage")
	}
	if _, err := UnmarshalPrivateKey([]byte("not DER")); err == nil {
		t.Error("UnmarshalPrivateKey accepted garbage")
	}
}

func TestConstantCiphertextSizes(t *testing.T) {
	// §4.3: "The size of all encrypted messages is constant, by using
	// fixed-size user and item identifiers, and padding when necessary."
	if SealedIDSize != 112 || SealedKeySize != 80 {
		t.Fatalf("sealed sizes %d/%d, want 32+64+16 = 112 and 32+32+16 = 80", SealedIDSize, SealedKeySize)
	}
	key := mustKey(t)
	var sizes []int
	for _, id := range []string{"u", "a-much-longer-user-identifier-string"} {
		block, err := PadID(id)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Seal(testKeyPair.Public, block)
		if err != nil {
			t.Fatal(err)
		}
		det, err := DetEncrypt(key, block)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(ct), len(det))
	}
	if sizes[0] != SealedIDSize || sizes[2] != SealedIDSize || sizes[1] != sizes[3] {
		t.Errorf("ciphertext sizes vary with identifier length: %v", sizes)
	}
	ct, err := Seal(testKeyPair.Public, mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != SealedKeySize {
		t.Errorf("sealed temporary key is %d bytes, want %d", len(ct), SealedKeySize)
	}
}
