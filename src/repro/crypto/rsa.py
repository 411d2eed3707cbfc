"""RSA public-key primitives: keygen, sign/verify, encrypt/decrypt.

The paper's architecture uses public-key crypto in exactly three
places:

1. the User Manager and Channel Manager **sign** tickets (Fig. 3);
2. the managers **certify the client's public key** by including it in
   the signed ticket body (Section IV-B);
3. a target peer **encrypts the per-link session key** under the
   joining client's public key (Section IV-E, JOIN round in Fig. 4c).

This module provides those operations with textbook RSA:

* signatures are full-domain-style: ``sig = pad(SHA-256(m))^d mod n``
  with deterministic PKCS#1-v1.5-shaped padding;
* encryption pads the message with a random non-zero mask byte prefix
  (a simplified PKCS#1 type-2 padding) drawn in bulk from the caller's
  DRBG.

Key sizes default to 512 bits in simulation (fast pure-Python keygen);
the construction is identical at production sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import generate_safe_distinct_primes
from repro.errors import DecryptionError, KeyFormatError, SignatureError
from repro.metrics.hotpath import counters as _hot

_SIG_PREFIX = b"\x00\x01"
_SIG_FILL = b"\xff"
_SIG_SEP = b"\x00"
_ENC_PREFIX = b"\x00\x02"
_DIGEST_LEN = 32


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _modinv(a: int, m: int) -> int:
    """Modular inverse via extended Euclid; raises if gcd(a, m) != 1."""
    g, x = _egcd(a, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _egcd(a: int, b: int) -> "tuple[int, int]":
    """Return (gcd, x) with a*x ≡ gcd (mod b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``.

    Instances are immutable and hashable so they can serve as dict keys
    (e.g. a peer indexing session keys by its children's public keys).
    """

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        """Modulus size in whole bytes."""
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify ``signature`` over ``message``; raise on failure.

        Raising (rather than returning bool) keeps callers honest: a
        forgotten check cannot silently pass.
        """
        if len(signature) != self.size_bytes:
            raise SignatureError("signature length does not match modulus")
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            raise SignatureError("signature out of range")
        _hot.rsa_verifies += 1
        recovered = pow(sig_int, self.e, self.n)
        padded = recovered.to_bytes(self.size_bytes, "big")
        expected = _pad_digest(_sha256(message), self.size_bytes)
        if padded != expected:
            raise SignatureError("signature does not verify")

    def is_valid_signature(self, message: bytes, signature: bytes) -> bool:
        """Boolean form of :meth:`verify` for callers that branch."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def encrypt(self, plaintext: bytes, drbg: HmacDrbg) -> bytes:
        """Encrypt a short message (e.g. a session key) to this key.

        Uses simplified PKCS#1 type-2 padding: ``00 02 || nonzero-random
        || 00 || plaintext``.  Message must fit with at least 8 bytes of
        random padding.

        The padding is drawn in bulk: one ``generate(pad_len)`` with its
        zero bytes dropped, topped up by further bulk draws for the
        shortfall, so a 512-bit key's ~45 pad bytes almost always take
        one or two DRBG calls.
        """
        k = self.size_bytes
        max_len = k - 11
        if len(plaintext) > max_len:
            raise ValueError(
                f"plaintext too long for {k * 8}-bit key: {len(plaintext)} > {max_len}"
            )
        pad_len = k - 3 - len(plaintext)
        pad = drbg.generate(pad_len).replace(b"\x00", b"")
        while len(pad) < pad_len:
            pad += drbg.generate(pad_len - len(pad)).replace(b"\x00", b"")
        block = _ENC_PREFIX + pad + b"\x00" + plaintext
        m_int = int.from_bytes(block, "big")
        c_int = pow(m_int, self.e, self.n)
        return c_int.to_bytes(k, "big")

    def to_bytes(self) -> bytes:
        """Canonical serialization: lengths-then-values, big endian.

        Memoized: the encoding is pure over the frozen fields, and the
        ticket pipeline re-serializes the same key on every signed-body
        encode and cache lookup.
        """
        cached = self.__dict__.get("_bytes_cache")
        if cached is not None:
            return cached
        n_b = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_b = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        blob = (
            len(n_b).to_bytes(2, "big") + n_b + len(e_b).to_bytes(2, "big") + e_b
        )
        object.__setattr__(self, "_bytes_cache", blob)
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RsaPublicKey":
        """Parse the output of :meth:`to_bytes`."""
        try:
            n_len = int.from_bytes(blob[0:2], "big")
            n = int.from_bytes(blob[2 : 2 + n_len], "big")
            off = 2 + n_len
            e_len = int.from_bytes(blob[off : off + 2], "big")
            e = int.from_bytes(blob[off + 2 : off + 2 + e_len], "big")
            if off + 2 + e_len != len(blob) or n == 0 or e == 0:
                raise ValueError
        except (ValueError, IndexError) as exc:
            raise KeyFormatError("malformed public key blob") from exc
        return cls(n=n, e=e)

    def fingerprint(self) -> str:
        """Short hex identifier for logs, debugging, and cache keys.

        Memoized alongside :meth:`to_bytes` -- the ticket verification
        cache computes it once per lookup.
        """
        cached = self.__dict__.get("_fingerprint_cache")
        if cached is not None:
            return cached
        fp = _sha256(self.to_bytes()).hex()[:16]
        object.__setattr__(self, "_fingerprint_cache", fp)
        return fp


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key; carries its public half.

    The decryption/signing exponent ``d`` satisfies
    ``e*d ≡ 1 (mod lcm(p-1, q-1))``.

    When the prime factorization is known the key also carries the
    Chinese-Remainder-Theorem components ``(p, q, dp, dq, qinv)`` with
    ``dp = d mod (p-1)``, ``dq = d mod (q-1)``, ``qinv = q^-1 mod p``.
    Private-key operations then run as two half-size exponentiations
    recombined by Garner's formula -- ~3-4x faster than the single
    full-size ``pow(m, d, n)`` -- which is what keeps ticket signing
    off the SWITCH2 critical path at renewal-storm load.  Keys built
    from ``(n, e, d)`` alone still work; they simply take the slow
    path.
    """

    n: int
    e: int
    d: int
    p: Optional[int] = None
    q: Optional[int] = None
    dp: Optional[int] = None
    dq: Optional[int] = None
    qinv: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.q is None or self.p * self.q != self.n:
                raise KeyFormatError("CRT primes do not factor the modulus")
            if self.dp is None or self.dq is None or self.qinv is None:
                raise KeyFormatError("incomplete CRT parameter set")
            if (self.qinv * self.q) % self.p != 1:
                raise KeyFormatError("qinv is not q^-1 mod p")

    @property
    def has_crt(self) -> bool:
        """Does this key carry the CRT fast-path components?"""
        return self.p is not None

    def without_crt(self) -> "RsaPrivateKey":
        """A copy restricted to ``(n, e, d)`` -- the slow path.

        Used by benchmarks to measure the CRT speedup, and by callers
        that must ship a key somewhere the factorization should not
        travel.
        """
        return RsaPrivateKey(n=self.n, e=self.e, d=self.d)

    @property
    def public_key(self) -> RsaPublicKey:
        """The corresponding public key."""
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def size_bytes(self) -> int:
        """Modulus size in whole bytes."""
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, m_int: int) -> int:
        """``m^d mod n`` via CRT when possible, else directly."""
        _hot.rsa_private_ops += 1
        if self.p is None:
            return pow(m_int, self.d, self.n)
        _hot.rsa_crt_ops += 1
        m1 = pow(m_int % self.p, self.dp, self.p)
        m2 = pow(m_int % self.q, self.dq, self.q)
        h = (self.qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with deterministic padding."""
        padded = _pad_digest(_sha256(message), self.size_bytes)
        m_int = int.from_bytes(padded, "big")
        sig_int = self._private_op(m_int)
        return sig_int.to_bytes(self.size_bytes, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`RsaPublicKey.encrypt`; raise on bad padding."""
        if len(ciphertext) != self.size_bytes:
            raise DecryptionError("ciphertext length does not match modulus")
        c_int = int.from_bytes(ciphertext, "big")
        if c_int >= self.n:
            raise DecryptionError("ciphertext out of range")
        m_int = self._private_op(c_int)
        block = m_int.to_bytes(self.size_bytes, "big")
        if not block.startswith(_ENC_PREFIX):
            raise DecryptionError("bad padding prefix")
        sep = block.find(b"\x00", 2)
        if sep == -1 or sep < 10:
            raise DecryptionError("bad padding structure")
        return block[sep + 1 :]


def _pad_digest(digest: bytes, size: int) -> bytes:
    """PKCS#1-v1.5-shaped signature padding: ``00 01 FF.. 00 digest``."""
    if len(digest) != _DIGEST_LEN:
        raise ValueError("digest must be SHA-256 sized")
    fill_len = size - len(_SIG_PREFIX) - 1 - len(digest)
    if fill_len < 8:
        raise ValueError(f"modulus too small for signature padding ({size} bytes)")
    return _SIG_PREFIX + _SIG_FILL * fill_len + _SIG_SEP + digest


def generate_keypair(drbg: HmacDrbg, bits: int = 512, e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus.

    ``bits`` is the modulus size; each prime has ``bits // 2`` bits.
    Regenerates primes in the (vanishingly rare) event that ``e`` is
    not coprime to the totient.
    """
    if bits < 256:
        raise ValueError("modulus below 256 bits cannot hold signature padding")
    if bits % 2 != 0:
        raise ValueError("modulus bit size must be even")
    half = bits // 2
    while True:
        p, q = generate_safe_distinct_primes(half, drbg)
        lam = (p - 1) * (q - 1) // _gcd(p - 1, q - 1)
        if lam % e == 0:
            continue
        try:
            d = _modinv(e, lam)
        except ValueError:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        return RsaPrivateKey(
            n=n,
            e=e,
            d=d,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            qinv=_modinv(q, p),
        )


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
