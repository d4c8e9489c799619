"""The bench power supply.

The paper's controller supplies small targets directly and hands
high-current targets to an external supply (§5); for the simulator both are
one programmable source with voltage and current-limit settings.
"""

from __future__ import annotations

from ..errors import ConfigurationError, PowerError


class PowerSupply:
    """A programmable DC source feeding one device at a time."""

    def __init__(self, *, max_voltage: float = 6.0, max_current_a: float = 3.0):
        if max_voltage <= 0 or max_current_a <= 0:
            raise ConfigurationError("supply ratings must be positive")
        self.max_voltage = max_voltage
        self.max_current_a = max_current_a
        self.voltage = 0.0
        self.output_on = False
        self._device = None

    def connect(self, device) -> None:
        """Wire the supply to a device (which must be off)."""
        if self._device is not None:
            raise PowerError("supply is already connected to a device")
        if device.powered:
            raise PowerError("connect to an unpowered device")
        self._device = device

    def disconnect(self) -> None:
        if self._device is None:
            raise PowerError("nothing connected")
        if self.output_on:
            self.off()
        self._device = None

    def set_voltage(self, volts: float) -> None:
        """Program the output voltage; live targets see it immediately."""
        if not 0 < volts <= self.max_voltage:
            raise ConfigurationError(
                f"voltage {volts} V outside supply range (0, {self.max_voltage}]"
            )
        self.voltage = volts
        if self.output_on and self._device is not None:
            self._device.set_supply(volts)

    def on(self, *, sample: bool = True) -> "object":
        """Enable the output; returns the target's SRAM power-on state
        (``None`` with ``sample=False``, see :meth:`Device.power_on`)."""
        if self._device is None:
            raise PowerError("no device connected")
        if self.output_on:
            raise PowerError("output is already on")
        if self.voltage <= 0:
            raise PowerError("set a voltage before enabling the output")
        state = self._device.power_on(self.voltage, sample=sample)
        self.output_on = True
        return state

    def off(self, *, drain: bool = True) -> None:
        """Disable the output; ``drain`` crowbars the rail to ground."""
        if not self.output_on:
            raise PowerError("output is already off")
        self._device.power_off(drain=drain)
        self.output_on = False
