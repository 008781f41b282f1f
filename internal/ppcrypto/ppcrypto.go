// Package ppcrypto implements the cryptographic suite used by the PProx
// protocol (Middleware '21, §4.1): hybrid public-key encryption for
// exclusive visibility by one proxy layer, deterministic AES-CTR (constant
// initialization vector) for pseudonymization of user and item identifiers,
// randomized AES-CTR for protecting recommendation lists, and a fixed-size
// padding codec that keeps every encrypted message at a constant length.
//
// The paper's implementation uses Intel's OpenSSL SGX port with RSA for
// asymmetric encryption and AES-CTR for symmetric encryption. This package
// keeps the symmetric half and replaces RSA-OAEP with one hybrid KEM suite
// in the shape of RFC 9180 (HPKE) base mode: X25519 key agreement with a
// fresh ephemeral key per message, HKDF-SHA-256 over the shared secret
// bound to (enc ‖ pkR), and AES-256-GCM. It gives the same property the
// protocol needs from RSA-OAEP — randomized encryption that only the
// holder of one layer's private key can open — at a fraction of the cost,
// on the Go standard library alone.
package ppcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// SymmetricKeySize is the AES-256 key length used for both the
	// permanent pseudonymization keys (kUA, kIA) and the per-request
	// temporary keys (k_u).
	SymmetricKeySize = 32

	// IDBlockSize is the fixed size every user or item identifier is
	// padded to before encryption, so that all pseudonyms and all
	// asymmetric ciphertexts have constant length.
	IDBlockSize = 64

	// encSize is the length of the ephemeral X25519 public key (enc)
	// that prefixes every sealed message.
	encSize = 32

	// gcmNonceSize and gcmTagSize are AES-GCM's standard sizes.
	gcmNonceSize = 12
	gcmTagSize   = 16

	// SealOverhead is what Seal adds to a plaintext: enc plus the GCM tag.
	SealOverhead = encSize + gcmTagSize

	// SealedIDSize is the constant size of a sealed identifier block
	// (EncUser, EncItem): 32 + 64 + 16 bytes. Constant ciphertext size is
	// what makes messages between the user-side library and the proxy
	// layers indistinguishable to a network observer (§4.3).
	SealedIDSize = SealOverhead + IDBlockSize

	// SealedKeySize is the constant size of a sealed temporary key
	// (EncTempKey): 32 + 32 + 16 bytes.
	SealedKeySize = SealOverhead + SymmetricKeySize

	// ivSize is the AES block size used for CTR initialization vectors.
	ivSize = aes.BlockSize

	// sealInfo labels the suite in the key schedule, so a key derived
	// here can never collide with one derived for another purpose from
	// the same shared secret.
	sealInfo = "pprox seal v1 X25519 HKDF-SHA256 AES-256-GCM"
)

// Errors returned by this package. They are exported so that callers (the
// proxy layers and the user-side library) can distinguish malformed
// ciphertexts from identifier-encoding problems.
var (
	// ErrIdentifierTooLong reports an identifier that does not fit in a
	// fixed-size block.
	ErrIdentifierTooLong = errors.New("ppcrypto: identifier too long for fixed-size block")

	// ErrMalformedPadding reports a padded block whose header is
	// inconsistent with its contents.
	ErrMalformedPadding = errors.New("ppcrypto: malformed fixed-size padding")

	// ErrCiphertextSize reports a ciphertext of unexpected length.
	ErrCiphertextSize = errors.New("ppcrypto: ciphertext has unexpected size")

	// ErrKeySize reports a symmetric key of the wrong length.
	ErrKeySize = errors.New("ppcrypto: symmetric key must be 32 bytes")

	// ErrKeySuite reports key material of another suite than X25519 —
	// an RSA key from before the hybrid suite, for instance.
	ErrKeySuite = errors.New("ppcrypto: not an X25519 key")

	// ErrOpen reports a sealed message that does not open under the
	// given private key: sealed to another key, tampered with, or
	// carrying a degenerate ephemeral key.
	ErrOpen = errors.New("ppcrypto: sealed message rejected")
)

// KeyPair is an asymmetric key pair provisioned to one proxy layer. The
// public half is embedded in the user-side library; the private half lives
// only inside the layer's enclave.
type KeyPair struct {
	Private *ecdh.PrivateKey
	Public  *ecdh.PublicKey
}

// GenerateKeyPair creates a fresh layer key pair.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate X25519 key: %w", err)
	}
	return &KeyPair{Private: priv, Public: priv.PublicKey()}, nil
}

// MarshalPublicKey serializes a layer public key (PKIX/DER) for embedding in
// the user-side library's provisioning bundle.
func MarshalPublicKey(pub *ecdh.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("marshal public key: %w", err)
	}
	return der, nil
}

// UnmarshalPublicKey parses a PKIX/DER public key. Keys of any other
// suite fail with ErrKeySuite.
func UnmarshalPublicKey(der []byte) (*ecdh.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse public key: %w", err)
	}
	pub, ok := k.(*ecdh.PublicKey)
	if !ok || pub.Curve() != ecdh.X25519() {
		return nil, fmt.Errorf("parse public key: %w (got %T)", ErrKeySuite, k)
	}
	return pub, nil
}

// MarshalPrivateKey serializes a layer private key (PKCS#8/DER) for sealed
// provisioning into an enclave.
func MarshalPrivateKey(priv *ecdh.PrivateKey) ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("marshal private key: %w", err)
	}
	return der, nil
}

// UnmarshalPrivateKey parses a PKCS#8/DER private key. Keys of any other
// suite fail with ErrKeySuite. Parsing derives the public key with a
// scalar base-multiply, so callers on a hot path parse once and keep the
// result.
func UnmarshalPrivateKey(der []byte) (*ecdh.PrivateKey, error) {
	k, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse private key: %w", err)
	}
	priv, ok := k.(*ecdh.PrivateKey)
	if !ok || priv.Curve() != ecdh.X25519() {
		return nil, fmt.Errorf("parse private key: %w (got %T)", ErrKeySuite, k)
	}
	return priv, nil
}

// NewSymmetricKey draws a fresh AES-256 key: a permanent pseudonymization
// key (kUA, kIA) at provisioning time, or a temporary per-request key (k_u)
// in the user-side library.
func NewSymmetricKey() ([]byte, error) {
	key := make([]byte, SymmetricKeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("generate symmetric key: %w", err)
	}
	return key, nil
}

// PadID encodes an identifier into a fixed-size block: a 2-byte big-endian
// length header followed by the identifier bytes and zero padding. All
// identifiers on the wire occupy exactly IDBlockSize bytes so that their
// ciphertexts are indistinguishable by size.
func PadID(id string) ([]byte, error) {
	if len(id) > IDBlockSize-2 {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrIdentifierTooLong, len(id), IDBlockSize-2)
	}
	block := make([]byte, IDBlockSize)
	binary.BigEndian.PutUint16(block[:2], uint16(len(id)))
	copy(block[2:], id)
	return block, nil
}

// UnpadID decodes a fixed-size identifier block produced by PadID.
func UnpadID(block []byte) (string, error) {
	if len(block) != IDBlockSize {
		return "", fmt.Errorf("%w: block is %d bytes", ErrMalformedPadding, len(block))
	}
	n := int(binary.BigEndian.Uint16(block[:2]))
	if n > IDBlockSize-2 {
		return "", fmt.Errorf("%w: header length %d", ErrMalformedPadding, n)
	}
	for _, b := range block[2+n:] {
		if b != 0 {
			return "", fmt.Errorf("%w: nonzero padding", ErrMalformedPadding)
		}
	}
	return string(block[2 : 2+n]), nil
}

// Seal encrypts a short payload (a padded identifier or a temporary
// symmetric key) so that only the holder of pub's private key can read
// it. Every call draws a fresh ephemeral X25519 key, so this is
// randomized encryption: two seals of the same input yield different
// ciphertexts, which is why the result cannot serve as a pseudonym (§4.1)
// — pseudonyms use DetEncrypt instead. The output is enc ‖ AES-GCM
// ciphertext, SealOverhead bytes longer than the plaintext.
func Seal(pub *ecdh.PublicKey, plaintext []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("seal: ephemeral key: %w", err)
	}
	return sealWith(eph, pub, plaintext)
}

// sealWith is Seal under a given ephemeral key.
func sealWith(eph *ecdh.PrivateKey, pub *ecdh.PublicKey, plaintext []byte) ([]byte, error) {
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	enc := eph.PublicKey().Bytes()
	aead, nonce, err := sealKeySchedule(shared, enc, pub.Bytes())
	if err != nil {
		return nil, err
	}
	out := make([]byte, encSize, SealOverhead+len(plaintext))
	copy(out, enc)
	return aead.Seal(out, nonce, plaintext, nil), nil
}

// Open decrypts a Seal ciphertext with a layer private key. Every way a
// ciphertext can be wrong — too short, a low-order or all-zero ephemeral
// key, sealed to another key, tampered with — fails with
// ErrCiphertextSize or ErrOpen, never a panic.
func Open(priv *ecdh.PrivateKey, sealed []byte) ([]byte, error) {
	if len(sealed) < SealOverhead {
		return nil, fmt.Errorf("%w: got %d, want at least %d", ErrCiphertextSize, len(sealed), SealOverhead)
	}
	enc := sealed[:encSize]
	eph, err := ecdh.X25519().NewPublicKey(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOpen, err)
	}
	shared, err := priv.ECDH(eph)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOpen, err)
	}
	aead, nonce, err := sealKeySchedule(shared, enc, priv.PublicKey().Bytes())
	if err != nil {
		return nil, err
	}
	pt, err := aead.Open(nil, nonce, sealed[encSize:], nil)
	if err != nil {
		return nil, ErrOpen
	}
	return pt, nil
}

// sealKeySchedule derives the single-use AEAD key and nonce from the
// X25519 shared secret, binding both the ephemeral key and the
// recipient's public key (RFC 9180's kem_context = enc ‖ pkR) so a
// ciphertext cannot be replayed against another recipient.
func sealKeySchedule(shared, enc, pkR []byte) (cipher.AEAD, []byte, error) {
	info := make([]byte, 0, len(sealInfo)+len(enc)+len(pkR))
	info = append(append(append(info, sealInfo...), enc...), pkR...)
	okm := hkdfSHA256(shared, info, SymmetricKeySize+gcmNonceSize)
	block, err := aes.NewCipher(okm[:SymmetricKeySize])
	if err != nil {
		return nil, nil, fmt.Errorf("AES cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("AES-GCM: %w", err)
	}
	return aead, okm[SymmetricKeySize:], nil
}

// hkdfSHA256 is HKDF (RFC 5869) with SHA-256 and an empty salt: extract a
// pseudorandom key from secret, then expand it with info to n bytes
// (n ≤ 255·32). It is written out on crypto/hmac because crypto/hkdf only
// entered the standard library in Go 1.24, above this module's go line.
func hkdfSHA256(secret, info []byte, n int) []byte {
	extract := hmac.New(sha256.New, make([]byte, sha256.Size))
	extract.Write(secret)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	out := make([]byte, 0, n+sha256.Size)
	var t []byte
	for i := byte(1); len(out) < n; i++ {
		expand.Reset()
		expand.Write(t)
		expand.Write(info)
		expand.Write([]byte{i})
		t = expand.Sum(nil)
		out = append(out, t...)
	}
	return out[:n]
}

// EncryptOAEP forwards to Seal.
//
// Deprecated: the RSA-OAEP suite is gone; use Seal.
func EncryptOAEP(pub *ecdh.PublicKey, plaintext []byte) ([]byte, error) { return Seal(pub, plaintext) }

// DecryptOAEP forwards to Open.
//
// Deprecated: the RSA-OAEP suite is gone; use Open.
func DecryptOAEP(priv *ecdh.PrivateKey, ct []byte) ([]byte, error) { return Open(priv, ct) }

// DetEncrypt deterministically encrypts a fixed-size block with AES-256-CTR
// and a constant (all-zero) initialization vector. Determinism is required
// so the LRS recognizes two pseudonymized identifiers as the same entity:
// det_enc(u, kUA) is the stable pseudonym of user u (§4.1). The trade-off —
// lower resilience against known-plaintext analysis than probabilistic
// encryption — is the one the paper makes explicitly.
func DetEncrypt(key, block []byte) ([]byte, error) {
	c, err := newCTR(key, make([]byte, ivSize))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(block))
	c.XORKeyStream(out, block)
	return out, nil
}

// DetDecrypt reverses DetEncrypt. CTR mode is an involution under the same
// key stream, so this is the same transform; the separate name keeps call
// sites self-describing.
func DetDecrypt(key, block []byte) ([]byte, error) {
	return DetEncrypt(key, block)
}

// SymEncrypt encrypts arbitrary data with AES-256-CTR under a fresh random
// initialization vector, prepended to the ciphertext. This is the
// randomized encryption used for recommendation lists returned to the
// user-side library under the temporary key k_u (§4.1).
func SymEncrypt(key, plaintext []byte) ([]byte, error) {
	iv := make([]byte, ivSize)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("generate IV: %w", err)
	}
	c, err := newCTR(key, iv)
	if err != nil {
		return nil, err
	}
	out := make([]byte, ivSize+len(plaintext))
	copy(out, iv)
	c.XORKeyStream(out[ivSize:], plaintext)
	return out, nil
}

// SymDecrypt reverses SymEncrypt.
func SymDecrypt(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < ivSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than IV", ErrCiphertextSize, len(ciphertext))
	}
	c, err := newCTR(key, ciphertext[:ivSize])
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ciphertext)-ivSize)
	c.XORKeyStream(out, ciphertext[ivSize:])
	return out, nil
}

func newCTR(key, iv []byte) (cipher.Stream, error) {
	if len(key) != SymmetricKeySize {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("AES cipher: %w", err)
	}
	return cipher.NewCTR(block, iv), nil
}

// Pseudonymize is the composite operation performed inside an enclave: pad
// the cleartext identifier to a fixed-size block and deterministically
// encrypt it under the layer's permanent key. The result is the stable
// pseudonym stored by the LRS.
func Pseudonymize(key []byte, id string) ([]byte, error) {
	block, err := PadID(id)
	if err != nil {
		return nil, err
	}
	return DetEncrypt(key, block)
}

// Depseudonymize reverses Pseudonymize: decrypt a stable pseudonym back to
// the cleartext identifier. Only the layer holding the permanent key can do
// this (the IA layer does, to translate LRS recommendations back to catalog
// item identifiers).
func Depseudonymize(key, pseudonym []byte) (string, error) {
	if len(pseudonym) != IDBlockSize {
		return "", fmt.Errorf("%w: pseudonym is %d bytes", ErrCiphertextSize, len(pseudonym))
	}
	block, err := DetDecrypt(key, pseudonym)
	if err != nil {
		return "", err
	}
	return UnpadID(block)
}
