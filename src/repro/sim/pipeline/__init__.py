"""Cycle-accurate model of the 5-stage pipelined ART-9 core (Fig. 4).

The package is organised like the block diagram of the paper:

``stages``
    The decoded instruction record and the pipeline latch payloads carried
    between IF/ID, ID/EX, EX/MEM and MEM/WB.  The simulator decodes the
    program once, at reset, and the latches carry those records.
``hazards``
    The hazard detection unit (HDU) of the ID stage: load-use stall
    detection and the stall control signal that selects a NOP at the next
    ID stage.
``forwarding``
    The forwarding multiplexers that route EX/MEM and MEM/WB results back to
    the TALU inputs and the 1-trit condition forwarding to the ID-stage
    branch checker.
``branch``
    The dedicated branch-target calculator and condition checker placed in
    ID, which redirect the PC with a single bubble for taken branches.
``core``
    The :class:`PipelineSimulator` that wires everything together and
    advances the machine cycle by cycle.
"""

from repro.sim.pipeline.core import PipelineSimulator
from repro.sim.pipeline.stats import PipelineStats

__all__ = ["PipelineSimulator", "PipelineStats"]
