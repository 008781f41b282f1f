package proxy

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"

	"pprox/internal/ppcrypto"
)

// keyfile.go serializes key material for the cmd/ binaries and the
// examples: the RaaS client application generates layer keys with
// pprox-keygen, provisions the proxy processes with the full file, and
// embeds only the public bundle in its front end.

// KeyFile is the JSON form of both layers' full key material. It is held
// by the RaaS client application only; proxy layer processes receive it
// at start-up to provision their enclaves.
type KeyFile struct {
	UA LayerKeyJSON `json:"ua"`
	IA LayerKeyJSON `json:"ia"`
	// LinkKey is the shared hop-envelope key (base64, optional). It sits
	// at the top level rather than per layer because it is one key held
	// by both enclaves; see LayerKeys.LinkKey.
	LinkKey string `json:"link_key,omitempty"`
}

// LayerKeyJSON is one layer's key material in serialized form.
type LayerKeyJSON struct {
	// PrivateKeyDER is the PKCS#8 private key, base64.
	PrivateKeyDER string `json:"private_key_der"`
	// PermanentKey is the 32-byte pseudonymization key, base64.
	PermanentKey string `json:"permanent_key"`
}

// BundleFile is the JSON form of the public bundle embedded in the
// user-side library.
type BundleFile struct {
	// UAPublicDER and IAPublicDER are PKIX public keys, base64.
	UAPublicDER string `json:"ua_public_der"`
	IAPublicDER string `json:"ia_public_der"`
}

// MarshalKeyFile serializes both layers' keys. A link key is taken from
// either layer (they hold the same one; PairLinkKey guarantees it).
func MarshalKeyFile(ua, ia *LayerKeys) ([]byte, error) {
	uaJSON, err := layerToJSON(ua)
	if err != nil {
		return nil, err
	}
	iaJSON, err := layerToJSON(ia)
	if err != nil {
		return nil, err
	}
	kf := KeyFile{UA: uaJSON, IA: iaJSON}
	if link := firstKey(ua.LinkKey, ia.LinkKey); len(link) > 0 {
		kf.LinkKey = base64.StdEncoding.EncodeToString(link)
	}
	return json.MarshalIndent(kf, "", "  ")
}

func firstKey(keys ...[]byte) []byte {
	for _, k := range keys {
		if len(k) > 0 {
			return k
		}
	}
	return nil
}

func layerToJSON(lk *LayerKeys) (LayerKeyJSON, error) {
	der, err := ppcrypto.MarshalPrivateKey(lk.Pair.Private)
	if err != nil {
		return LayerKeyJSON{}, err
	}
	return LayerKeyJSON{
		PrivateKeyDER: base64.StdEncoding.EncodeToString(der),
		PermanentKey:  base64.StdEncoding.EncodeToString(lk.Permanent),
	}, nil
}

// UnmarshalKeyFile parses a key file back into both layers' keys.
func UnmarshalKeyFile(data []byte) (ua, ia *LayerKeys, err error) {
	var kf KeyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, nil, fmt.Errorf("parse key file: %w", err)
	}
	if ua, err = layerFromJSON(kf.UA); err != nil {
		return nil, nil, fmt.Errorf("UA keys: %w", err)
	}
	if ia, err = layerFromJSON(kf.IA); err != nil {
		return nil, nil, fmt.Errorf("IA keys: %w", err)
	}
	if kf.LinkKey != "" {
		link, err := base64.StdEncoding.DecodeString(kf.LinkKey)
		if err != nil {
			return nil, nil, fmt.Errorf("decode link key: %w", err)
		}
		if len(link) != ppcrypto.SymmetricKeySize {
			return nil, nil, fmt.Errorf("link key is %d bytes, want %d", len(link), ppcrypto.SymmetricKeySize)
		}
		ua.LinkKey = link
		ia.LinkKey = append([]byte(nil), link...)
	}
	return ua, ia, nil
}

func layerFromJSON(lj LayerKeyJSON) (*LayerKeys, error) {
	der, err := base64.StdEncoding.DecodeString(lj.PrivateKeyDER)
	if err != nil {
		return nil, fmt.Errorf("decode private key: %w", err)
	}
	priv, err := ppcrypto.UnmarshalPrivateKey(der)
	if err != nil {
		return nil, regenerateHint(err)
	}
	perm, err := base64.StdEncoding.DecodeString(lj.PermanentKey)
	if err != nil {
		return nil, fmt.Errorf("decode permanent key: %w", err)
	}
	if len(perm) != ppcrypto.SymmetricKeySize {
		return nil, fmt.Errorf("permanent key is %d bytes, want %d", len(perm), ppcrypto.SymmetricKeySize)
	}
	return &LayerKeys{
		Pair:      &ppcrypto.KeyPair{Private: priv, Public: priv.PublicKey()},
		Permanent: perm,
	}, nil
}

// MarshalBundleFile serializes the public bundle.
func MarshalBundleFile(b PublicBundle) ([]byte, error) {
	uaDER, err := ppcrypto.MarshalPublicKey(b.UAPublic)
	if err != nil {
		return nil, err
	}
	iaDER, err := ppcrypto.MarshalPublicKey(b.IAPublic)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(BundleFile{
		UAPublicDER: base64.StdEncoding.EncodeToString(uaDER),
		IAPublicDER: base64.StdEncoding.EncodeToString(iaDER),
	}, "", "  ")
}

// UnmarshalBundleFile parses a public bundle.
func UnmarshalBundleFile(data []byte) (PublicBundle, error) {
	var bf BundleFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return PublicBundle{}, fmt.Errorf("parse bundle file: %w", err)
	}
	uaDER, err := base64.StdEncoding.DecodeString(bf.UAPublicDER)
	if err != nil {
		return PublicBundle{}, fmt.Errorf("decode UA public key: %w", err)
	}
	iaDER, err := base64.StdEncoding.DecodeString(bf.IAPublicDER)
	if err != nil {
		return PublicBundle{}, fmt.Errorf("decode IA public key: %w", err)
	}
	uaPub, err := ppcrypto.UnmarshalPublicKey(uaDER)
	if err != nil {
		return PublicBundle{}, fmt.Errorf("UA public key: %w", regenerateHint(err))
	}
	iaPub, err := ppcrypto.UnmarshalPublicKey(iaDER)
	if err != nil {
		return PublicBundle{}, fmt.Errorf("IA public key: %w", regenerateHint(err))
	}
	return PublicBundle{UAPublic: uaPub, IAPublic: iaPub}, nil
}

// regenerateHint tells the operator what to do about key material of
// another suite — in practice RSA keys written before the X25519 suite,
// which no enclave can use any more.
func regenerateHint(err error) error {
	if errors.Is(err, ppcrypto.ErrKeySuite) {
		return fmt.Errorf("%w; RSA-era key files are no longer supported, regenerate keys and bundle with pprox-keygen", err)
	}
	return err
}
