"""n-party authenticated set intersection tolerating t collusions.

All n parties pre-announce tree commitments to their equally-sized sets.
Around v = n - t the parties split (`Roles`) into group A (P_1 .. P_{v-1}),
a central coordinator P_v, and group B (P_{v+1} .. P_n); P_n is the only
party that learns the intersection.

- transform: everyone broadcasts the root of the inputs it runs on, and
  nothing else.
- interact: every party compares every other party's root with the one
  that party announced; the first failure anywhere broadcasts an abort and
  the whole session dies. Once every root a party is owed has passed, it
  takes its role's first step (`_after_gate`): a group-A party P_i draws one
  PRF key per group-B party, sends each key to its target, and ships the
  coordinator an oblivious table T_i encoding x -> XOR of the PRF of x
  under all those keys; the parties P_v .. P_n exchange pairwise
  zero-sharing seeds; the hint senders ask the dealer for their OPRF keys,
  and P_n for its evaluations. The coordinator aggregates
  A^v(x) = XOR of Decode(T_i, x); each group-B party aggregates
  A^i(x) = XOR of its received PRF evaluations.
- reconstruct: each of P_v .. P_{n-1} programs an oblivious PRF with points
  (x, share(x) XOR A(x)) and sends the hint to P_n, which queries every hint
  at its own elements and keeps those x where its own share XOR A^n(x)
  equals the XOR of all received values. For an element held by everyone,
  each pairwise PRF term appears exactly twice and the zero-sharing shares
  cancel, so the test reduces to zero; any missing holder leaves an unpaired
  pseudorandom term.

Every 64-bit XOR value (table values, aggregates, shares, hint points and
the final comparison) is a uint64 array over the party's input set, so each
step above is a handful of whole-array XORs and batched PRF calls; the
share tables and hints are OKVS tables of 64-bit cells (width 1). Each party
hashes its elements once, when it commits, and every PRF, OKVS row and OPRF
query of the session runs over the digests d(x) its commitment holds (`psi2`
says why that is sound).

P_n's test compares 64 bits, and an element some party lacks leaves an
unpaired pseudorandom term, so a false match has probability at most
n_l * 2^-64 per comparison set: 2^-52 at n_l = 2^12, inside the 2^-40 budget.
Every key, seed and table fill a party draws comes from its `gf.KeyStream`.

Admission, the root gate and the abort path are `psi2.Party`'s, the core
this engine shares with the two-party one. Each party is owed one root from
every other party, and by role:

- a group-B party: one group key (0x12) from each group-A party;
- the coordinator: one share table (0x13) from each group-A party;
- a subgroup member: one zero-sharing seed (0x16) from each lower member;
- a hint sender: its OPRF key (0x15) from the dealer;
- P_n: one hint (0x14) from each sender, and one evaluation response
  (0x15) from the dealer: the XOR over senders of their OPRFs at P_n's
  digests. P_n's test XORs the hints' decodes and those evaluations
  together, so the XOR is all it needs (`opprf` says why).

The core refuses anything else, so a handler checks only content: a key or
seed is the bare 16-byte payload, its endpoints the envelope's; a table or
hint must parse; P_n's evaluations must be one per own element. The dealer
(`harness.DealerService`) is owed one request (0x15) by each sender, which
is empty, and one by P_n, its digests. A fault at any endpoint, the dealer
included, becomes one abort to every party it deals with.

Only P_n terminates with output; everyone else ends with none. The gate
binds each party to its commitment as far as `psi2` states: a party that
replays its honest root is not caught. Apart from those roots, no message
between parties carries a function of a single element that the receiving
party could evaluate itself. The ideal-OPRF dealer sees P_n's queries as
session-salted element digests d(x), not as plaintext elements, though it
can still test a guessed element against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import gf, okvs, opprf, zeroshare
from .errors import ConfigError, ProtocolError
# unused here; held by name for bench/test_bench.py, which checks the tracer replaces it here too
from .psi2 import Party, decode_root_proofs  # noqa: F401
from .transport import DEALER_INDEX

MSG_ROOT_PROOFS = 0x11
MSG_GROUP_KEY = 0x12
MSG_SHARE_TABLE = 0x13
MSG_OPPRF_HINT = 0x14
MSG_OPRF_DEALER = opprf.MSG_OPRF_DEALER  # 0x15
MSG_ZS_SEED = 0x16
MSG_ABORT = 0x1F


def _bare_key(raw: bytes, what: str) -> bytes:
    """A group key, zero-sharing seed or OPRF key: the bare key, its endpoints are the envelope's."""
    if len(raw) != zeroshare.SEED_BYTES:
        raise ProtocolError(f"undecodable {what}")
    return raw


class Roles:
    """The roles in an (n, t) session around the coordinator P_v, v = n - t, and the one
    rule for which (n, t) the construction runs."""

    def __init__(self, n: int, t: int):
        if n < 3:
            raise ConfigError("multi-party runs need at least 3 parties")
        # the collusion cap admits the boundary grid point at odd n, e.g. (5, 3)
        if not 1 <= t <= (n + 1) // 2:
            raise ConfigError(f"collusion bound t={t} out of range for n={n}")
        if n - t < 2:
            raise ConfigError("n - t must be at least 2")
        self.n, self.t, self.v = n, t, n - t
        self.group_a = list(range(1, self.v))
        self.group_b = list(range(self.v + 1, n + 1))
        self.subgroup = list(range(self.v, n + 1))  # zero-sharing: the coordinator through P_n
        # hint senders, the coordinator through P_{n-1}: each asks the dealer for its OPRF key
        self.senders = list(range(self.v, n))


class PsinEngine(Party):
    """Message-driven state machine for one party of an n-party session; only P_n gets output."""
    ROOT_TYPE = MSG_ROOT_PROOFS
    ABORT_TYPE = MSG_ABORT

    def __init__(self, session, i: int, rng: Optional[gf.KeyStream] = None):
        super().__init__(session, i, rng)
        self.roles = roles = Roles(session.n, session.t)
        self.n_l = len(self.inputs)
        owed = self._owed
        if i in roles.group_b:
            owed[MSG_GROUP_KEY] = dict.fromkeys(roles.group_a, 1)
        if i == roles.v:
            owed[MSG_SHARE_TABLE] = dict.fromkeys(roles.group_a, 1)
        if i > roles.v:  # the subgroup above the coordinator
            owed[MSG_ZS_SEED] = dict.fromkeys(range(roles.v, i), 1)
        if i == roles.n:
            owed[MSG_OPPRF_HINT] = dict.fromkeys(roles.senders, 1)
        if i == roles.n or i in roles.senders:
            owed[MSG_OPRF_DEALER] = {DEALER_INDEX: 1}
        # group B: group-A PRF keys by sender; coordinator: their share tables
        self.groupa_keys: dict[int, bytes] = {}
        self._share_tables: dict[int, okvs.OkvsTable] = {}
        # subgroup: zero-sharing seed per counterpart
        self._zs_seeds: dict[int, bytes] = {}
        # sender: its OPRF key; P_n: each sender's hint and the dealer's evaluations
        self._oprf_key: Optional[bytes] = None
        self._hints: dict[int, okvs.OkvsTable] = {}
        self._evals: Optional[np.ndarray] = None

    # -- transform -----------------------------------------------------------

    def start(self) -> list:
        """The root; the rest waits for the gate."""
        return self._open()

    # -- interact ------------------------------------------------------------

    def _after_gate(self) -> list:
        """Each role's first step once every root has passed: group A deals its keys and
        ships its share table, the subgroup deals its seeds, and the dealer's clients ask it."""
        roles, i = self.roles, self.index
        out = []
        if i in roles.group_a:
            keys = {j: self.rng.bytes(zeroshare.SEED_BYTES) for j in roles.group_b}
            out.extend((j, self._env(MSG_GROUP_KEY, key)) for j, key in keys.items())
            values = zeroshare.prf(list(keys.values()), self.digests)[:, None]
            result = okvs.encode_with_retry(self.digests, values, okvs.MAX_ENCODE_ATTEMPTS,
                                            self.rng)
            if result is None:
                raise ProtocolError("share table encoding failed")
            table, _ = result
            out.append((roles.v, self._env(MSG_SHARE_TABLE, table.to_bytes())))

        if i in roles.subgroup:
            for j in range(i + 1, roles.n + 1):
                self._zs_seeds[j] = self.rng.bytes(zeroshare.SEED_BYTES)
                out.append((j, self._env(MSG_ZS_SEED, self._zs_seeds[j])))

        if i in roles.senders:  # the key request is empty: the dealer keys by the sender's index
            out.append((DEALER_INDEX, self._env(MSG_OPRF_DEALER, b"")))
        if i == roles.n:  # P_n's request is its digests
            out.append((DEALER_INDEX, self._env(MSG_OPRF_DEALER, gf.vec_to_bytes(self.digests))))
        return out

    # -- message handling ----------------------------------------------------

    def handle(self, src: int, env) -> list:
        return self._route(src, env, {MSG_ROOT_PROOFS: self._on_root,
                                      MSG_GROUP_KEY: self._on_group_key,
                                      MSG_SHARE_TABLE: self._on_share_table,
                                      MSG_ZS_SEED: self._on_zs_seed,
                                      MSG_OPPRF_HINT: self._on_hint,
                                      MSG_OPRF_DEALER: self._on_oprf_dealer})

    def _on_group_key(self, src: int, payload: bytes) -> list:
        self.groupa_keys[src] = _bare_key(payload, f"group key from party {src}")
        return self._advance()

    def _on_share_table(self, src: int, payload: bytes) -> list:
        try:
            self._share_tables[src] = okvs.OkvsTable.from_bytes(payload, self.n_l, width=1)
        except ValueError as exc:
            raise ProtocolError(f"undecodable share table from party {src}: {exc}") from exc
        return self._advance()

    def _on_zs_seed(self, src: int, payload: bytes) -> list:
        self._zs_seeds[src] = _bare_key(payload, f"zero-sharing seed from party {src}")
        return self._advance()

    def _on_oprf_dealer(self, src: int, payload: bytes) -> list:
        """A sender's OPRF key, or P_n's evaluations: 8 bytes per own element."""
        if self.index != self.roles.n:
            self._oprf_key = _bare_key(payload, "OPRF key from the dealer")
        elif len(payload) != self.n_l * zeroshare.VALUE_DTYPE.itemsize:
            raise ProtocolError("wrong OPRF evaluation count")
        else:
            self._evals = np.frombuffer(payload, dtype=zeroshare.VALUE_DTYPE)
        return self._advance()

    def _on_hint(self, src: int, payload: bytes) -> list:
        try:
            self._hints[src] = okvs.OkvsTable.from_bytes(payload, self.n_l, width=1)
        except ValueError as exc:
            raise ProtocolError(f"undecodable hint from party {src}: {exc}") from exc
        return self._advance()

    # -- progress ------------------------------------------------------------

    def _aggregate(self) -> np.ndarray:
        """A^i per own element, uint64: tables at the coordinator, PRF keys in group B."""
        if self.index == self.roles.v:
            decoded = [okvs.decode_batch(t, self.digests) for t in self._share_tables.values()]
            return np.bitwise_xor.reduce(decoded).ravel()
        return zeroshare.prf([self.groupa_keys[s] for s in self.roles.group_a], self.digests)

    def _own_values(self) -> np.ndarray:
        """share(x) XOR A^i(x) per own element: what a sender programs, what P_n compares."""
        return zeroshare.zs_share(self._zs_seeds.values(), self.digests) ^ self._aggregate()

    def _advance(self) -> list:
        """Once a party is owed nothing more, P_n outputs and each hint sender sends its hint."""
        roles, i = self.roles, self.index
        if not self._settled() or i in roles.group_a:
            return []
        if i == roles.n:
            own = self._own_values()
            combined = opprf.opprf_query_batch([self._hints[s] for s in roles.senders],
                                               self.digests, self._evals)
            self.intersection = {self.inputs[q] for q in np.flatnonzero(own == combined).tolist()}
            return []
        hint = opprf.opprf_program(self.digests, self._own_values(), self._oprf_key,
                                   rng=self.rng)
        return [(roles.n, self._env(MSG_OPPRF_HINT, hint.to_bytes()))]
