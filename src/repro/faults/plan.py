"""Fault plans: deterministic, seed-driven schedules of injected faults.

A plan is consulted once per *fault site operation* — each host-to-device
DMA, device-to-host DMA, kernel launch, device allocation, signal wait,
and offload entry (the ``device`` site, whose only kind is a full
``reset``) asks :meth:`FaultPlan.draw` whether this particular operation
fails.  Operations are numbered per site in issue order, which the
simulator guarantees is deterministic, and every site draws from its own
seed-derived random stream, so a plan built from the same seed always
injects the same faults at the same places — regardless of which other
sites are consulted in between: same seed ⇒ identical
:class:`~repro.faults.stats.FaultStats` and identical outputs.

Two scheduling modes compose:

* **seeded** — every operation draws against a per-site probability from
  a ``numpy`` generator;
* **scripted** — explicit :class:`FaultSpec` entries pin a fault to the
  n-th operation of a site, for targeted tests ("the third h2d transfer
  is corrupted").

Besides the *announced* kinds (the operation visibly fails and the
recovery ladder fires), sites with a data payload carry **silent**
kinds — ``h2d:silent``, ``d2h:silent``, ``kernel:sdc`` and the
``arena`` site's ``bitflip`` — which flip payload bytes without raising
anything.  Silent kinds never share a random stream with the announced
kinds of their site (adding them cannot perturb an existing seeded
schedule); they are drawn through :meth:`FaultPlan.draw_silent` against
``"site:kind"`` rate keys (e.g. ``rates={"h2d:silent": 0.05}``), which
default to 0 so no plan schedules them unless asked.  Detecting and
surviving them is the :class:`~repro.runtime.integrity.IntegrityManager`'s
job.

Multi-device runs add a **device dimension**: a fleet runtime passes the
active device's index to :meth:`FaultPlan.draw` / :meth:`draw_silent`,
and each ``(site, device)`` pair gets its own counter and its own
seed-derived stream (entropy carries a device discriminator the same way
silent streams carry theirs).  Adding device K+1 to a fleet therefore
never perturbs the draw sequences of devices 0..K, and a single-device
run — which passes no device at all — stays bit-identical to the
pre-fleet schedules.  Rates and scripted specs can be device-scoped with
a ``devK:`` prefix (``rates={"dev0:device": 0.5}``,
``FaultSpec("device", 0, "reset", device=1)``); un-scoped entries apply
to every device, and un-scoped scripted specs pin to the n-th draw of a
site *in global issue order* regardless of which device draws it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

#: Every place the runtime consults the plan.  ``arena`` is the
#: shared-memory segment upload path, whose only fault kind is a silent
#: bit flip.
FAULT_SITES = ("h2d", "d2h", "kernel", "alloc", "signal", "device", "arena")

#: Fault kinds available at each site (announced kinds first — a
#: scripted spec with no explicit kind defaults to the first entry).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "h2d": ("corrupt", "stall", "silent"),
    "d2h": ("corrupt", "stall", "silent"),
    "kernel": ("crash", "hang", "sdc"),
    "alloc": ("oom",),
    "signal": ("lost",),
    "device": ("reset",),
    "arena": ("bitflip",),
}

#: Silent-corruption kinds per site: the operation "succeeds" but the
#: payload is wrong.  Nothing raises; only checksum verification (the
#: integrity layer) can notice.
SILENT_KINDS: Dict[str, Tuple[str, ...]] = {
    "h2d": ("silent",),
    "d2h": ("silent",),
    "kernel": ("sdc",),
    "arena": ("bitflip",),
}

#: Kinds a site can raise through the announced (self-detecting) path.
ANNOUNCED_KINDS: Dict[str, Tuple[str, ...]] = {
    site: tuple(k for k in kinds if k not in SILENT_KINDS.get(site, ()))
    for site, kinds in SITE_KINDS.items()
}

#: Kinds :meth:`FaultPlan.draw` selects among.  For legacy sites this is
#: exactly the announced tuple (so seeded kind selection is untouched by
#: the silent taxonomy); an all-silent site like ``arena`` draws its
#: silent kind directly — there is nothing else it could raise.
_DRAW_KINDS: Dict[str, Tuple[str, ...]] = {
    site: ANNOUNCED_KINDS[site] or SITE_KINDS[site] for site in SITE_KINDS
}

#: Default per-operation fault probability of a seeded plan.  Rates are
#: deliberately high for a simulator — a campaign of a few scenarios
#: should exercise every recovery path, not model a real PCIe BER.
#: Device resets are opt-in (rate 0): surviving one requires the
#: checkpoint/restart machinery to be enabled on the policy, so a plan
#: never schedules resets unless the campaign asked for them.  Silent
#: kinds are likewise opt-in: arena bit flips via the plain ``arena``
#: rate, the rest via composite ``"site:kind"`` keys
#: (``"h2d:silent"``, ``"d2h:silent"``, ``"kernel:sdc"``) which are
#: absent here and therefore default to 0.
DEFAULT_RATES: Dict[str, float] = {
    "h2d": 0.02,
    "d2h": 0.02,
    "kernel": 0.01,
    "alloc": 0.005,
    "signal": 0.01,
    "device": 0.0,
    "arena": 0.0,
}


#: ``devK:`` prefix on a rate key or recovery-action label, scoping it to
#: one device of a fleet.
_DEVICE_KEY_RE = re.compile(r"^dev(\d+):(.*)$")


def split_device_key(key: str) -> Tuple[Optional[int], str]:
    """Split an optional ``devK:`` prefix off *key*.

    Returns ``(device_index, rest)`` — ``(None, key)`` when the key is
    not device-scoped.  ``split_device_key("dev2:h2d:silent")`` is
    ``(2, "h2d:silent")``.
    """
    match = _DEVICE_KEY_RE.match(key)
    if match is None:
        return None, key
    return int(match.group(1)), match.group(2)


def _valid_rate_key(key: object) -> bool:
    """Whether *key* names a fault site or a ``site:kind`` silent rate,
    optionally scoped to one device with a ``devK:`` prefix."""
    if not isinstance(key, str):
        return False
    _, key = split_device_key(key)
    if key in SITE_KINDS:
        return True
    site, _, kind = key.partition(":")
    return site in SITE_KINDS and kind in SILENT_KINDS.get(site, ())


def check_rates(rates: Dict[str, float]) -> None:
    """Reject rates no plan can draw: each key must be a fault site or a
    ``site:kind`` silent rate, optionally ``devK:``-scoped, and each rate
    a finite probability in [0, 1].  Messages name the ``--rate`` flag."""
    unknown = sorted((k for k in rates if not _valid_rate_key(k)), key=repr)
    if unknown:
        raise ValueError(
            f"bad --rate spec: unknown fault sites {unknown}; expected "
            f"SITE=PROB or SITE:KIND=PROB with SITE in {FAULT_SITES}, "
            "optionally prefixed devK: (repro faults --list-sites lists them)"
        )
    for key, value in rates.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or not 0.0 <= value <= 1.0
        ):
            raise ValueError(
                f"bad --rate spec {key!r}: rate {value!r} is not a finite "
                f"probability in [0, 1]"
            )


def _normalize_rate_key(key: str) -> str:
    """Collapse a ``site:kind`` key to ``site`` on all-silent sites.

    ``"arena:bitflip"`` and ``"arena"`` are the same schedule (the site
    has only one kind and no announced path), so both spellings feed the
    site's regular draw stream.  A ``devK:`` prefix is preserved.
    """
    device, rest = split_device_key(key)
    site, _, kind = rest.partition(":")
    if kind and not ANNOUNCED_KINDS.get(site, ()):
        rest = site
    return rest if device is None else f"dev{device}:{rest}"


@dataclass(frozen=True)
class Fault:
    """One injected fault, as handed to the runtime."""

    site: str
    kind: str
    #: Fraction of the nominal operation duration wasted before the
    #: failure is detected (used by stall/crash kinds).
    severity: float = 0.5
    #: Per-site operation ordinal the fault landed on.
    index: int = 0
    #: Fleet device index the faulted operation ran on; ``None`` for a
    #: single-device run (the pre-fleet shape).
    device: Optional[int] = None


@dataclass(frozen=True)
class FaultSpec:
    """A scripted fault: the *index*-th operation at *site* fails.

    With *device* set, *index* counts only that device's operations at
    the site; without it, *index* counts operations in global issue
    order across the whole fleet (which for one device is the same
    thing).
    """

    site: str
    index: int
    kind: Optional[str] = None
    severity: float = 0.5
    device: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITE_KINDS:
            raise ValueError(
                f"unknown fault site {self.site!r}; know {sorted(SITE_KINDS)}"
            )
        if self.index < 0:
            raise ValueError(
                f"fault index must be >= 0, got {self.index} "
                f"(operations are numbered per site from 0)"
            )
        if not 0.0 < self.severity <= 1.0:
            raise ValueError(
                f"severity must be in (0, 1], got {self.severity} "
                f"(the fraction of the operation wasted before detection)"
            )
        kind = self.kind
        if kind is not None and kind not in SITE_KINDS[self.site]:
            raise ValueError(
                f"site {self.site!r} cannot raise {kind!r}; "
                f"know {SITE_KINDS[self.site]}"
            )
        if self.device is not None and self.device < 0:
            raise ValueError(
                f"device index must be >= 0, got {self.device} "
                f"(fleet devices are numbered dev0, dev1, ...)"
            )


class FaultPlan:
    """A deterministic schedule of faults for one run.

    *seed* drives the probabilistic schedule (any value accepted by
    :func:`numpy.random.default_rng`, so tuples of ints work for derived
    streams).  *rates* overrides :data:`DEFAULT_RATES` per site — silent
    kinds on mixed sites are keyed ``"site:kind"`` (``"h2d:silent"``,
    ``"d2h:silent"``, ``"kernel:sdc"``) and default to 0; passing only
    *scripted* specs (no seed) yields a plan that injects exactly those
    faults and nothing else.  *max_faults* caps the total number of
    injected faults, bounding worst-case recovery time.
    """

    def __init__(
        self,
        seed=None,
        rates: Optional[Dict[str, float]] = None,
        scripted: Iterable[FaultSpec] = (),
        max_faults: Optional[int] = None,
    ):
        if rates is None:
            rates = dict(DEFAULT_RATES) if seed is not None else {}
        check_rates(rates)
        self.seed = seed
        self.rates = {_normalize_rate_key(k): float(v) for k, v in rates.items()}
        self.max_faults = max_faults
        # Scripted specs are keyed (site, index, device) — device None
        # for un-scoped specs, which pin to the n-th draw of the site in
        # global issue order; device-scoped specs pin to the n-th draw
        # *by that device* and are consulted first.
        self._scripted: Dict[Tuple[str, int, Optional[int]], FaultSpec] = {}
        self._scripted_silent: Dict[Tuple[str, int, Optional[int]], FaultSpec] = {}
        for spec in scripted:
            if (
                spec.kind in SILENT_KINDS.get(spec.site, ())
                and ANNOUNCED_KINDS[spec.site]
            ):
                # Silent kind on a mixed site: pinned to the n-th
                # *silent* draw, so it rides the silent stream and never
                # displaces an announced scripted fault at the same index.
                self._scripted_silent[(spec.site, spec.index, spec.device)] = spec
            else:
                self._scripted[(spec.site, spec.index, spec.device)] = spec
        # Legacy (device-less) streams keyed by site; device streams
        # keyed (site, device).  A single-device run only ever touches
        # the former, so its schedules are bit-identical to pre-fleet.
        self._rngs: Dict[str, np.random.Generator] = {}
        self._silent_rngs: Dict[str, np.random.Generator] = {}
        self._counters: Dict[str, int] = {}
        self._silent_counters: Dict[str, int] = {}
        self._device_rngs: Dict[Tuple[str, int], np.random.Generator] = {}
        self._device_silent_rngs: Dict[Tuple[str, int], np.random.Generator] = {}
        self._device_counters: Dict[Tuple[str, int], int] = {}
        self._device_silent_counters: Dict[Tuple[str, int], int] = {}
        self._emitted = 0

    def _site_rng(self, site: str) -> np.random.Generator:
        """The independent random stream for *site*.

        Each site derives its own generator from ``(seed, site index)``,
        so the draws a site sees depend only on how many operations *it*
        has issued — never on which other sites were consulted in
        between.  Adding a new fault site (or instrumenting a new code
        path) therefore cannot perturb the schedules of existing sites.
        """
        rng = self._rngs.get(site)
        if rng is None:
            seed = 0 if self.seed is None else self.seed
            if isinstance(seed, (tuple, list)):
                entropy = tuple(seed) + (FAULT_SITES.index(site),)
            else:
                entropy = (seed, FAULT_SITES.index(site))
            rng = np.random.default_rng(entropy)
            self._rngs[site] = rng
        return rng

    def _silent_rng(self, site: str) -> np.random.Generator:
        """The independent random stream for *site*'s silent draws.

        Silent kinds on mixed sites never touch the announced stream:
        the entropy tuple carries a trailing discriminator, so enabling
        ``"h2d:silent"`` cannot perturb a seeded ``h2d`` schedule.
        """
        rng = self._silent_rngs.get(site)
        if rng is None:
            seed = 0 if self.seed is None else self.seed
            if isinstance(seed, (tuple, list)):
                entropy = tuple(seed) + (FAULT_SITES.index(site), 1)
            else:
                entropy = (seed, FAULT_SITES.index(site), 1)
            rng = np.random.default_rng(entropy)
            self._silent_rngs[site] = rng
        return rng

    def _device_rng(self, site: str, device: int, silent: bool) -> np.random.Generator:
        """The independent random stream for *site* on fleet *device*.

        Entropy extends the site's tuple with a discriminator (2 for
        announced, 3 for silent — 0/absent and 1 being taken by the
        legacy streams) and the device index, so each ``(site, device)``
        pair draws independently: device K+1 joining the fleet can never
        perturb the sequences devices 0..K see, and no device stream
        collides with the legacy single-device streams.
        """
        cache = self._device_silent_rngs if silent else self._device_rngs
        rng = cache.get((site, device))
        if rng is None:
            seed = 0 if self.seed is None else self.seed
            tag = 3 if silent else 2
            if isinstance(seed, (tuple, list)):
                entropy = tuple(seed) + (FAULT_SITES.index(site), tag, device)
            else:
                entropy = (seed, FAULT_SITES.index(site), tag, device)
            rng = np.random.default_rng(entropy)
            cache[(site, device)] = rng
        return rng

    def _rate_for(self, site: str, device: Optional[int], kind: Optional[str]) -> float:
        """Effective rate for a draw: the device-scoped key wins, then
        the plain site (or ``site:kind``) key applies fleet-wide."""
        rest = site if kind is None else f"{site}:{kind}"
        if device is not None:
            scoped = self.rates.get(f"dev{device}:{rest}")
            if scoped is not None:
                return scoped
        return self.rates.get(rest, 0.0)

    # -- drawing ---------------------------------------------------------------

    def draw(self, site: str, device: Optional[int] = None) -> Optional[Fault]:
        """The fault (if any) hitting the next operation at *site*.

        *device* is the fleet device index issuing the operation; the
        lone card of a one-card machine passes nothing and the draw is
        bit-identical to the pre-fleet behavior.  The global per-site
        counter advances on every draw regardless of device (so
        :meth:`operations` and un-scoped scripted specs keep their
        issue-order meaning), while device draws additionally advance —
        and take their randomness from — the ``(site, device)`` stream.
        """
        if site not in SITE_KINDS:
            raise ValueError(
                f"unknown fault site {site!r}; know {sorted(SITE_KINDS)}"
            )
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        dev_index = None
        if device is not None:
            dev_index = self._device_counters.get((site, device), 0)
            self._device_counters[(site, device)] = dev_index + 1
        spec = None
        spec_index = index
        if device is not None:
            spec = self._scripted.get((site, dev_index, device))
            if spec is not None:
                spec_index = dev_index
        if spec is None:
            spec = self._scripted.get((site, index, None))
            spec_index = index
        if spec is not None:
            self._emitted += 1
            return Fault(
                site=site,
                kind=spec.kind or _DRAW_KINDS[site][0],
                severity=spec.severity,
                index=spec_index,
                device=device,
            )
        rate = self._rate_for(site, device, None)
        if rate <= 0.0:
            return None
        if self.max_faults is not None and self._emitted >= self.max_faults:
            return None
        if device is None:
            rng = self._site_rng(site)
        else:
            rng = self._device_rng(site, device, silent=False)
            index = dev_index
        if float(rng.random()) >= rate:
            return None
        kinds = _DRAW_KINDS[site]
        kind = kinds[int(rng.integers(len(kinds)))]
        # Keep severity strictly inside (0, 1): a fault always wastes
        # *some* time, and never more than the whole operation.
        severity = 0.1 + 0.8 * float(rng.random())
        self._emitted += 1
        return Fault(
            site=site, kind=kind, severity=severity, index=index, device=device
        )

    def draw_silent(self, site: str, device: Optional[int] = None) -> Optional[Fault]:
        """The silent fault (if any) hitting the next payload at *site*.

        Only mixed sites (those with both announced and silent kinds —
        ``h2d``, ``d2h``, ``kernel``) are drawn here; an all-silent site
        like ``arena`` goes through :meth:`draw`.  The draw consults the
        composite ``"site:kind"`` rate and the site's dedicated silent
        stream, so silent schedules are independent of announced ones.
        *device* scopes the draw to a fleet device's silent stream the
        same way it does for :meth:`draw`.
        """
        silent = SILENT_KINDS.get(site)
        if silent is None or not ANNOUNCED_KINDS.get(site, ()):
            raise ValueError(
                f"site {site!r} has no separate silent stream; "
                f"know {sorted(k for k in SILENT_KINDS if ANNOUNCED_KINDS[k])}"
            )
        kind = silent[0]
        index = self._silent_counters.get(site, 0)
        self._silent_counters[site] = index + 1
        dev_index = None
        if device is not None:
            dev_index = self._device_silent_counters.get((site, device), 0)
            self._device_silent_counters[(site, device)] = dev_index + 1
        spec = None
        spec_index = index
        if device is not None:
            spec = self._scripted_silent.get((site, dev_index, device))
            if spec is not None:
                spec_index = dev_index
        if spec is None:
            spec = self._scripted_silent.get((site, index, None))
            spec_index = index
        if spec is not None:
            self._emitted += 1
            return Fault(
                site=site,
                kind=kind,
                severity=spec.severity,
                index=spec_index,
                device=device,
            )
        rate = self._rate_for(site, device, kind)
        if rate <= 0.0:
            return None
        if self.max_faults is not None and self._emitted >= self.max_faults:
            return None
        if device is None:
            rng = self._silent_rng(site)
        else:
            rng = self._device_rng(site, device, silent=True)
            index = dev_index
        if float(rng.random()) >= rate:
            return None
        severity = 0.1 + 0.8 * float(rng.random())
        self._emitted += 1
        return Fault(
            site=site, kind=kind, severity=severity, index=index, device=device
        )

    # -- bookkeeping -----------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Faults injected so far."""
        return self._emitted

    def operations(self, site: str, device: Optional[int] = None) -> int:
        """Operations drawn so far at *site* (optionally by one device).

        The device-less count is the global issue-order total: every
        draw advances it whether or not it carried a device.
        """
        if device is not None:
            return self._device_counters.get((site, device), 0)
        return self._counters.get(site, 0)

    def silent_operations(self, site: str, device: Optional[int] = None) -> int:
        """Silent-stream draws consumed so far at *site*."""
        if device is not None:
            return self._device_silent_counters.get((site, device), 0)
        return self._silent_counters.get(site, 0)
