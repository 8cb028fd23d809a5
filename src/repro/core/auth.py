"""Authentication and access-control policies.

Two of the paper's security claims (§6.1) hinge on explicit policy points
that the current Internet lacks:

* **Enrollment authentication** — "to become a member of a distributed IPC
  facility, an IPC process needs to explicitly enroll, i.e., authenticated
  and assigned an address".  :class:`AuthPolicy` implementations plug into
  the enrollment exchange; a DIF can range "from public (as in the current
  Internet) to private" by choosing :class:`NoAuth`, :class:`PresharedKey`,
  or :class:`ChallengeResponse`.
* **Flow access control** — the flow allocator checks, at the destination,
  that "the requester has access" to the named application (§5.3).
  :class:`FlowAccessPolicy` implementations make that decision.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from typing import Any, Iterable, Optional, Set

from .names import ApplicationName


class AuthPolicy:
    """A two-message authentication exchange run during enrollment.

    The enrolling side calls :meth:`credentials` (given the authenticator's
    challenge, possibly None); the authenticating member calls
    :meth:`make_challenge` first and :meth:`verify` on the reply.
    """

    name = "abstract"

    def make_challenge(self) -> Optional[str]:
        """Challenge string sent to the joiner (None = no challenge)."""
        return None

    def credentials(self, challenge: Optional[str]) -> Any:
        """What the joiner presents, given the challenge."""
        raise NotImplementedError

    def verify(self, presented: Any, challenge: Optional[str]) -> bool:
        """Authenticator's accept/reject decision."""
        raise NotImplementedError


class NoAuth(AuthPolicy):
    """Accept everyone — the degenerate policy of the public Internet."""

    name = "none"

    def credentials(self, challenge: Optional[str]) -> Any:
        return None

    def verify(self, presented: Any, challenge: Optional[str]) -> bool:
        return True


class PresharedKey(AuthPolicy):
    """The joiner presents a shared secret in the clear.

    Simple and replayable — included as the mid-point of the security range
    experiment E7 sweeps over.
    """

    name = "psk"

    def __init__(self, secret: str) -> None:
        if not secret:
            raise ValueError("pre-shared key must be non-empty")
        self._secret = secret

    def credentials(self, challenge: Optional[str]) -> Any:
        return self._secret

    def verify(self, presented: Any, challenge: Optional[str]) -> bool:
        return isinstance(presented, str) and hmac.compare_digest(
            presented, self._secret)


class ChallengeResponse(AuthPolicy):
    """HMAC-SHA256 over a fresh nonce — replay-proof membership control."""

    name = "challenge-response"

    _nonce_counter = itertools.count(1)

    def __init__(self, secret: str) -> None:
        if not secret:
            raise ValueError("secret must be non-empty")
        self._secret = secret.encode()

    def make_challenge(self) -> Optional[str]:
        counter = next(self._nonce_counter)
        return hashlib.sha256(f"nonce:{counter}".encode()).hexdigest()[:32]

    def credentials(self, challenge: Optional[str]) -> Any:
        if challenge is None:
            return ""
        return hmac.new(self._secret, challenge.encode(),
                        hashlib.sha256).hexdigest()

    def verify(self, presented: Any, challenge: Optional[str]) -> bool:
        if challenge is None or not isinstance(presented, str):
            return False
        expected = hmac.new(self._secret, challenge.encode(),
                            hashlib.sha256).hexdigest()
        return hmac.compare_digest(presented, expected)


# ----------------------------------------------------------------------
# Flow access control
# ----------------------------------------------------------------------
class FlowAccessPolicy:
    """Destination-side check run by the flow allocator before a flow is
    granted (§5.3: "...and that the requester has access to it")."""

    def allow(self, source: ApplicationName, destination: ApplicationName) -> bool:
        """True to grant the flow."""
        raise NotImplementedError


class AllowAll(FlowAccessPolicy):
    """Grant every request (public service)."""

    def allow(self, source: ApplicationName, destination: ApplicationName) -> bool:
        return True


class DenyAll(FlowAccessPolicy):
    """Refuse every request (a service reachable only by management)."""

    def allow(self, source: ApplicationName, destination: ApplicationName) -> bool:
        return False


class AllowList(FlowAccessPolicy):
    """Grant only requests from an explicit set of source applications."""

    def __init__(self, sources: Iterable[ApplicationName]) -> None:
        self._allowed: Set[ApplicationName] = set(sources)

    def allow(self, source: ApplicationName, destination: ApplicationName) -> bool:
        return source in self._allowed

    def add(self, source: ApplicationName) -> None:
        """Extend the allow list at runtime."""
        self._allowed.add(source)
