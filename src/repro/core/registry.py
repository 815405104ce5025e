"""Unified session registry: one place where radios become sessions.

Every consumer that needs an end-to-end backscatter link — the link
simulator, the CLI, the parallel experiment engine — used to carry its
own ``{"wifi": WifiBackscatterSession, ...}`` mapping, so adding a radio
meant editing every caller.  The registry replaces those with a single
registration point:

>>> from repro.core.registry import create_session, registered_radios
>>> registered_radios()
['bluetooth', 'dsss', 'wifi', 'wifi-quaternary', 'zigbee']
>>> session = create_session("zigbee", payload_bytes=60, seed=7)

Adding a radio is one :func:`register_session` call (typically in the
module that defines the session class); CLI choices and engine workers
pick it up automatically.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Protocol, Sequence, Union, runtime_checkable)

import numpy as np

if TYPE_CHECKING:
    from repro.sim.config import RadioConfig

__all__ = ["BackscatterSession", "register_session", "create_session",
           "registered_radios", "session_from_config"]


@runtime_checkable
class BackscatterSession(Protocol):
    """Structural interface every registered session must satisfy.

    The link simulator and experiment engine only touch this surface:
    they never see the per-radio PHY chains behind it.  Packets run in
    two phases: ``predraw_packet`` makes every RNG draw of one packet,
    then ``channel_packets`` / ``decode_packets`` / ``finish_packet``
    finish any number of pending draws as stacked arrays.
    """

    oversample_factor: int
    sample_rate_hz: float
    #: Packets the link simulator stacks per channel/decode pass.
    _chunk_packets: int

    def capacity_bits(self) -> int:
        """Tag bits carried by one excitation packet."""
        ...

    def make_excitation(self,
                        rng: Optional[np.random.Generator] = None) -> Any:
        """Draw one excitation packet, reusable across packets."""
        ...

    def run_packet(self, snr_db: float, tag_bits: Any = None,
                   incident_power_dbm: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None,
                   excitation: Any = None) -> Any:
        """One excitation packet end-to-end; returns a SessionResult."""
        ...

    def predraw_packet(self, snr_db: float, tag_bits: Any = None,
                       incident_power_dbm: Optional[float] = None,
                       rng: Optional[np.random.Generator] = None,
                       excitation: Any = None) -> Any:
        """Phase 1: every RNG draw of one packet; returns a PacketDraw
        (already final when the packet was gated before the channel)."""
        ...

    def channel_packets(self, draws: Sequence[Any]) -> List[Any]:
        """Tag modulation and noise for every pending draw, stacked."""
        ...

    def decode_packets(self, draws: Sequence[Any]) -> List[Any]:
        """Stacked receiver decode; one decode per draw."""
        ...

    def finish_packet(self, draw: Any, decoded: Any) -> Any:
        """One draw plus its decode as a SessionResult."""
        ...


_FACTORIES: Dict[str, Callable[..., "BackscatterSession"]] = {}


def register_session(
    name: str, factory: Optional[Callable[..., Any]] = None
) -> Union[Callable[..., Any], Callable[[Callable[..., Any]],
                                        Callable[..., Any]]]:
    """Register *factory* under *name*; usable as a decorator.

    The factory receives ``create_session``'s keyword arguments verbatim
    and must return an object satisfying :class:`BackscatterSession`.
    Registering an existing name replaces it (last registration wins),
    which lets tests and extensions shadow a built-in radio.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("session name must be non-empty")

    def _register(f: Callable[..., Any]) -> Callable[..., Any]:
        _FACTORIES[key] = f
        return f

    if factory is not None:
        return _register(factory)
    return _register


def registered_radios() -> List[str]:
    """Sorted names of every registered radio."""
    return sorted(_FACTORIES)


def create_session(name: str, **kwargs: Any) -> "BackscatterSession":
    """Instantiate the session registered under *name*."""
    try:
        factory = _FACTORIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown radio {name!r}; registered radios: "
            f"{', '.join(registered_radios())}") from None
    return factory(**kwargs)


def session_from_config(config: "RadioConfig",
                        seed: Optional[int] = None) -> "BackscatterSession":
    """Build the session for a :class:`~repro.sim.config.RadioConfig`.

    Forwards the config knobs every session shares (payload size and
    repetition); radio-specific parameters keep their session defaults.
    """
    return create_session(config.name, payload_bytes=config.payload_bytes,
                          repetition=config.repetition, seed=seed)


# -- built-in radios ------------------------------------------------------
# Imports are deferred into the factories so importing the registry (for
# CLI --help, say) doesn't pull in the full PHY chains.

@register_session("wifi")
def _wifi_session(**kwargs: Any) -> "BackscatterSession":
    from repro.core.session import WifiBackscatterSession
    return WifiBackscatterSession(**kwargs)


@register_session("zigbee")
def _zigbee_session(**kwargs: Any) -> "BackscatterSession":
    from repro.core.session import ZigbeeBackscatterSession
    return ZigbeeBackscatterSession(**kwargs)


@register_session("bluetooth")
def _bluetooth_session(**kwargs: Any) -> "BackscatterSession":
    from repro.core.session import BleBackscatterSession
    return BleBackscatterSession(**kwargs)


@register_session("dsss")
def _dsss_session(**kwargs: Any) -> "BackscatterSession":
    from repro.core.session import DsssBackscatterSession
    return DsssBackscatterSession(**kwargs)


@register_session("wifi-quaternary")
def _wifi_quaternary_session(**kwargs: Any) -> "BackscatterSession":
    from repro.core.session import QuaternaryWifiSession
    return QuaternaryWifiSession(**kwargs)
