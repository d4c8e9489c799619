"""The simulated device: CPU + Flash + analog SRAM + supply regulation.

A :class:`Device` is the unit the Invisible Bits protocol operates on.  Its
lifecycle mirrors the paper's flow: the sender loads firmware over the debug
port, powers the board, lets the firmware initialise SRAM, elevates supply
and temperature for the stress period, then powers down and ships it; the
receiver loads the retention program and power-cycles to capture states.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, FirmwareError, PowerError
from ..isa.assembler import Program, assemble
from ..isa.cpu import CPU
from ..isa.memory import FLASH_BASE, SRAM_BASE, MemoryBus, SramRegion
from ..rng import make_rng
from ..sram.array import SRAMArray
from .catalog import DeviceSpec
from .flashmem import OnChipFlash
from .regulator import SupplyRegulator

#: Default instruction budget when running firmware at power-on; enough for
#: a full 64 KiB payload copy with margin.
DEFAULT_BOOT_STEPS = 2_000_000


class Device:
    """One physical device instance.

    Each instance gets its own process variation (from ``rng``) and a unique
    manufacturer device ID — the value the paper uses as the AES-CTR nonce
    (§4.1, footnote 4).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        *,
        rng: "int | np.random.Generator | None" = None,
        sram_kib: "float | None" = None,
        serial: "int | None" = None,
    ):
        self.spec = spec
        self._rng = make_rng(rng)
        kib = spec.sram_kib if sram_kib is None else sram_kib
        if kib <= 0:
            raise ConfigurationError(f"sram_kib must be positive, got {kib}")
        if sram_kib is not None and sram_kib > spec.sram_kib:
            raise ConfigurationError(
                f"{spec.name} has only {spec.sram_kib} KiB of SRAM"
            )

        self.sram = SRAMArray.from_kib(kib, spec.technology, rng=self._rng)
        flash_bytes = max(int(spec.flash_kib * 1024), 64 * 1024)
        self.flash = OnChipFlash(FLASH_BASE, flash_bytes)
        self.bus = MemoryBus()
        self.bus.add_region(self.flash)
        self.sram_region = SramRegion(SRAM_BASE, self.sram)
        self.bus.add_region(self.sram_region)
        self.cpu = CPU(self.bus, reset_pc=FLASH_BASE)

        self.regulator = SupplyRegulator(
            regulated=spec.has_regulator,
            output_v=spec.technology.vdd_nominal,
            input_abs_max_v=max(6.0, spec.technology.vdd_abs_max + 1.0),
        )
        self.external_v: float | None = None
        self._firmware: Program | None = None
        self._boot_enabled = False

        if serial is None:
            serial = int(self._rng.integers(0, 2**63))
        #: 96-bit manufacturer device ID (the CTR nonce source).
        self.device_id = serial.to_bytes(8, "big") + spec.name.encode()[:4].ljust(4, b"\x00")

    # -- power ----------------------------------------------------------------

    @property
    def powered(self) -> bool:
        return self.sram.powered

    @property
    def core_voltage(self) -> "float | None":
        """Current SRAM supply voltage, or None when off."""
        return self.sram.vdd if self.powered else None

    def power_on(
        self,
        external_v: "float | None" = None,
        *,
        boot: bool = True,
        max_steps: int = DEFAULT_BOOT_STEPS,
        sample: bool = True,
    ) -> "np.ndarray | None":
        """Apply board power and (optionally) run the loaded firmware.

        Returns the SRAM power-on state as captured *before* firmware runs —
        what a debugger halted at the reset vector would read out — or
        ``None`` with ``sample=False`` (see :meth:`SRAMArray.apply_power`).
        """
        if self.powered:
            raise PowerError(f"{self.spec.name} is already powered")
        if external_v is None:
            # Regulated boards take a normal 5 V rail; bare microcontrollers
            # (and boards whose regulator has been bypassed at the inductor
            # pin) are powered at the nominal core voltage directly.
            regulated = self.spec.has_regulator and not self.regulator.bypassed
            external_v = 5.0 if regulated else self.spec.technology.vdd_nominal
        core_v = self.regulator.core_voltage(external_v)
        state = self.sram.apply_power(core_v, sample=sample)
        self.external_v = external_v
        self.cpu.reset(self._firmware.entry_point if self._firmware else None)
        if boot and self._boot_enabled:
            outcome = self.cpu.run(max_steps)
            if outcome == "limit":
                raise FirmwareError(
                    f"firmware did not reach HALT or a busy-wait within "
                    f"{max_steps} steps"
                )
        return state

    def power_off(self, *, drain: bool = True) -> None:
        """Cut board power; ``drain`` pulls the rail down (paper §5)."""
        if not self.powered:
            raise PowerError(f"{self.spec.name} is not powered")
        self.sram.remove_power(drain=drain)
        self.external_v = None

    def set_supply(self, external_v: float) -> None:
        """Change the board rail while powered (the encoding voltage knob).

        On regulated devices this only reaches the core if the regulator has
        been bypassed (§7.2) — exactly the paper's practical hurdle.
        """
        if not self.powered:
            raise PowerError("cannot adjust the supply of an unpowered device")
        core_v = self.regulator.core_voltage(external_v)
        self.sram.set_voltage(core_v)
        self.external_v = external_v

    def set_ambient(self, temp_k: float) -> None:
        """Ambient (chamber) temperature."""
        self.sram.set_ambient(temp_k)

    # -- time -----------------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Let wall-clock time pass.

        Powered: the CPU is parked in its busy-wait and SRAM holds its
        contents — this is the stress path.  Unpowered: the device shelves.
        """
        if self.powered:
            self.sram.hold(seconds)
        else:
            self.sram.shelve(seconds)

    def run_workload(self, seconds: float, *, duty: float = 0.5) -> None:
        """Model a long stretch of general-purpose operation (§5.1.4)."""
        if not self.powered:
            raise PowerError("device must be powered to run a workload")
        self.sram.operate(seconds, duty=duty)

    # -- firmware ----------------------------------------------------------------------

    def load_firmware(self, program: "Program | str | bytes") -> None:
        """Program firmware into Flash via the debug path.

        Accepts an assembled :class:`Program`, assembly source text, or a
        raw image (entry at the flash base).  The device must be unpowered,
        matching the paper's flow of flashing before the power event.
        """
        if self.powered:
            raise PowerError("power the device down before reflashing")
        if isinstance(program, str):
            program = assemble(program, base_address=FLASH_BASE)
        if isinstance(program, bytes):
            self.flash.load_firmware(program)
            self._firmware = None
            self._boot_enabled = True
            self.cpu.reset_pc = FLASH_BASE
            return
        if program.base_address != FLASH_BASE:
            raise FirmwareError(
                f"firmware must be linked at {FLASH_BASE:#x}, "
                f"got {program.base_address:#x}"
            )
        self.flash.load_firmware(program.image)
        self._firmware = program
        self._boot_enabled = True
        self.cpu.reset_pc = program.entry_point

    @property
    def firmware(self) -> "Program | None":
        return self._firmware

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        power = "on" if self.powered else "off"
        return f"Device({self.spec.name}, {self.sram.n_bytes // 1024} KiB SRAM, power {power})"
