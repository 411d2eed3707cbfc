"""Tests for the RSA primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.errors import DecryptionError, KeyFormatError, SignatureError


@pytest.fixture(scope="module")
def key():
    return generate_keypair(HmacDrbg(b"rsa-tests"), bits=512)


@pytest.fixture(scope="module")
def other_key():
    return generate_keypair(HmacDrbg(b"rsa-tests-other"), bits=512)


class TestKeyGeneration:
    def test_modulus_bit_length(self, key):
        assert key.n.bit_length() == 512

    def test_deterministic_from_seed(self):
        a = generate_keypair(HmacDrbg(b"same"), bits=512)
        b = generate_keypair(HmacDrbg(b"same"), bits=512)
        assert (a.n, a.e, a.d) == (b.n, b.e, b.d)

    def test_exponent_relation(self, key):
        # e*d must invert modulo lambda(n); verify via a round trip on
        # a handful of values rather than factoring.
        for m in (2, 1234567, 2**100 + 3):
            assert pow(pow(m, key.e, key.n), key.d, key.n) == m

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            generate_keypair(HmacDrbg(b"x"), bits=128)

    def test_rejects_odd_bit_size(self):
        with pytest.raises(ValueError):
            generate_keypair(HmacDrbg(b"x"), bits=513)


class TestSignatures:
    def test_sign_verify_roundtrip(self, key):
        message = b"the channel ticket body"
        signature = key.sign(message)
        key.public_key.verify(message, signature)  # must not raise

    def test_signature_is_deterministic(self, key):
        assert key.sign(b"m") == key.sign(b"m")

    def test_tampered_message_fails(self, key):
        signature = key.sign(b"original")
        with pytest.raises(SignatureError):
            key.public_key.verify(b"Original", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(key.sign(b"message"))
        signature[10] ^= 0xFF
        with pytest.raises(SignatureError):
            key.public_key.verify(b"message", bytes(signature))

    def test_wrong_key_fails(self, key, other_key):
        signature = key.sign(b"message")
        with pytest.raises(SignatureError):
            other_key.public_key.verify(b"message", signature)

    def test_wrong_length_signature_fails(self, key):
        with pytest.raises(SignatureError):
            key.public_key.verify(b"message", b"\x00" * 10)

    def test_out_of_range_signature_fails(self, key):
        too_big = (key.n + 1).to_bytes(key.size_bytes, "big")
        with pytest.raises(SignatureError):
            key.public_key.verify(b"message", too_big)

    def test_boolean_form(self, key):
        signature = key.sign(b"m")
        assert key.public_key.is_valid_signature(b"m", signature)
        assert not key.public_key.is_valid_signature(b"n", signature)

    def test_empty_message_signs(self, key):
        key.public_key.verify(b"", key.sign(b""))


class TestEncryption:
    def test_encrypt_decrypt_roundtrip(self, key):
        drbg = HmacDrbg(b"enc")
        plaintext = b"\x01" * 16  # a session key
        ciphertext = key.public_key.encrypt(plaintext, drbg)
        assert key.decrypt(ciphertext) == plaintext

    def test_encryption_is_randomized(self, key):
        drbg = HmacDrbg(b"enc2")
        a = key.public_key.encrypt(b"secret", drbg)
        b = key.public_key.encrypt(b"secret", drbg)
        assert a != b
        assert key.decrypt(a) == key.decrypt(b) == b"secret"

    def test_too_long_plaintext_rejected(self, key):
        drbg = HmacDrbg(b"enc3")
        with pytest.raises(ValueError):
            key.public_key.encrypt(b"x" * (key.size_bytes - 10), drbg)

    def test_wrong_key_decrypt_fails(self, key, other_key):
        drbg = HmacDrbg(b"enc4")
        ciphertext = key.public_key.encrypt(b"secret", drbg)
        with pytest.raises(DecryptionError):
            other_key.decrypt(ciphertext)

    def test_truncated_ciphertext_fails(self, key):
        drbg = HmacDrbg(b"enc5")
        ciphertext = key.public_key.encrypt(b"secret", drbg)
        with pytest.raises(DecryptionError):
            key.decrypt(ciphertext[:-1])

    def test_empty_plaintext_roundtrips(self, key):
        drbg = HmacDrbg(b"enc6")
        assert key.decrypt(key.public_key.encrypt(b"", drbg)) == b""


def padding_of(key, ciphertext, plaintext_len):
    """Recover the type-2 padding bytes with the raw private op."""
    block = pow(int.from_bytes(ciphertext, "big"), key.d, key.n).to_bytes(
        key.size_bytes, "big"
    )
    pad_len = key.size_bytes - 3 - plaintext_len
    assert block[:2] == b"\x00\x02"
    assert block[2 + pad_len] == 0
    return block[2 : 2 + pad_len]


class CountingDrbg(HmacDrbg):
    """An HmacDrbg that records the size of every ``generate`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def generate(self, nbytes):
        self.calls.append(nbytes)
        return super().generate(nbytes)


class ZeroHeavyDrbg:
    """Worst-case padding source: the first draw is all zeros, every
    later draw alternates nonzero and zero bytes."""

    def __init__(self):
        self.calls = []

    def generate(self, nbytes):
        self.calls.append(nbytes)
        if len(self.calls) == 1:
            return bytes(nbytes)
        return bytes(0 if i % 2 else 1 + i % 255 for i in range(nbytes))


class TestBulkPadding:
    def test_zero_heavy_source_is_topped_up(self, key):
        drbg = ZeroHeavyDrbg()
        plaintext = b"\x05" * 16
        ciphertext = key.public_key.encrypt(plaintext, drbg)
        pad_len = key.size_bytes - 3 - len(plaintext)
        assert key.decrypt(ciphertext) == plaintext
        pad = padding_of(key, ciphertext, len(plaintext))
        assert len(pad) == pad_len and 0 not in pad
        # The first draw is wholly discarded; each top-up asks for
        # exactly the shortfall and keeps half of it, rounded up.
        assert drbg.calls[0] == pad_len
        missing = pad_len
        for requested in drbg.calls[1:]:
            assert requested == missing
            missing -= (requested + 1) // 2
        assert missing == 0
        assert len(drbg.calls) > 3

    def test_padding_is_pad_len_nonzero_bytes_at_every_length(self, key):
        drbg = HmacDrbg(b"every-length")
        for length in range(key.size_bytes - 10):
            plaintext = bytes(range(length))
            ciphertext = key.public_key.encrypt(plaintext, drbg)
            assert key.decrypt(ciphertext) == plaintext
            pad = padding_of(key, ciphertext, length)
            assert len(pad) == key.size_bytes - 3 - length >= 8
            assert 0 not in pad

    def test_at_most_two_drbg_calls_per_encrypt(self, key):
        assert key.size_bytes * 8 == 512
        drbg = CountingDrbg(b"bulk-draw")
        per_encrypt = []
        for _ in range(200):
            before = len(drbg.calls)
            key.public_key.encrypt(b"\x01" * 16, drbg)
            per_encrypt.append(len(drbg.calls) - before)
        assert max(per_encrypt) <= 2
        assert per_encrypt.count(2) < len(per_encrypt) // 2


class TestSerialization:
    def test_public_key_roundtrip(self, key):
        blob = key.public_key.to_bytes()
        restored = RsaPublicKey.from_bytes(blob)
        assert restored == key.public_key

    def test_malformed_blob_rejected(self):
        with pytest.raises(KeyFormatError):
            RsaPublicKey.from_bytes(b"\x00\x01")

    def test_trailing_garbage_rejected(self, key):
        with pytest.raises(KeyFormatError):
            RsaPublicKey.from_bytes(key.public_key.to_bytes() + b"junk")

    def test_fingerprint_stable_and_short(self, key):
        fp = key.public_key.fingerprint()
        assert fp == key.public_key.fingerprint()
        assert len(fp) == 16

    def test_fingerprints_differ(self, key, other_key):
        assert key.public_key.fingerprint() != other_key.public_key.fingerprint()


@given(message=st.binary(min_size=0, max_size=200))
@settings(max_examples=25, deadline=None)
def test_property_sign_verify(message):
    key = generate_keypair(HmacDrbg(b"prop-rsa"), bits=512)
    key.public_key.verify(message, key.sign(message))


@given(plaintext=st.binary(min_size=0, max_size=40))
@settings(max_examples=25, deadline=None)
def test_property_encrypt_decrypt(plaintext):
    key = generate_keypair(HmacDrbg(b"prop-rsa-enc"), bits=512)
    drbg = HmacDrbg(b"prop-enc")
    assert key.decrypt(key.public_key.encrypt(plaintext, drbg)) == plaintext


class TestCrtSigning:
    def test_generated_keys_carry_crt(self, key):
        assert key.has_crt
        assert key.p * key.q == key.n
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert (key.qinv * key.q) % key.p == 1

    def test_crt_and_plain_signatures_identical(self, key):
        slow = key.without_crt()
        assert not slow.has_crt
        for message in (b"", b"ticket body", b"\x00" * 64):
            assert key.sign(message) == slow.sign(message)

    def test_crt_and_plain_decrypt_identical(self, key):
        drbg = HmacDrbg(b"crt-dec")
        ciphertext = key.public_key.encrypt(b"session-key", drbg)
        assert key.decrypt(ciphertext) == key.without_crt().decrypt(ciphertext)

    def test_without_crt_preserves_public_half(self, key):
        slow = key.without_crt()
        assert slow.public_key == key.public_key
        assert (slow.n, slow.e, slow.d) == (key.n, key.e, key.d)
        assert slow.p is slow.q is slow.dp is slow.dq is slow.qinv is None

    def test_wrong_primes_rejected(self, key):
        from repro.crypto.rsa import RsaPrivateKey

        with pytest.raises(KeyFormatError):
            RsaPrivateKey(
                n=key.n, e=key.e, d=key.d,
                p=key.p + 2, q=key.q, dp=key.dp, dq=key.dq, qinv=key.qinv,
            )

    def test_partial_crt_set_rejected(self, key):
        from repro.crypto.rsa import RsaPrivateKey

        with pytest.raises(KeyFormatError):
            RsaPrivateKey(n=key.n, e=key.e, d=key.d, p=key.p, q=key.q)

    def test_bad_qinv_rejected(self, key):
        from repro.crypto.rsa import RsaPrivateKey

        with pytest.raises(KeyFormatError):
            RsaPrivateKey(
                n=key.n, e=key.e, d=key.d,
                p=key.p, q=key.q, dp=key.dp, dq=key.dq, qinv=key.qinv + 1,
            )

    def test_crt_counter_increments(self, key):
        from repro.metrics.hotpath import counters

        counters.reset()
        key.sign(b"m")
        assert counters.rsa_private_ops == 1
        assert counters.rsa_crt_ops == 1
        key.without_crt().sign(b"m")
        assert counters.rsa_private_ops == 2
        assert counters.rsa_crt_ops == 1
        counters.reset()


@given(message=st.binary(min_size=0, max_size=200))
@settings(max_examples=25, deadline=None)
def test_property_crt_matches_plain_signature(message):
    key = generate_keypair(HmacDrbg(b"prop-crt"), bits=512)
    assert key.sign(message) == key.without_crt().sign(message)
