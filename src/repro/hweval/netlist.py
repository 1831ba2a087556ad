"""Structural gate-level inventory of the pipelined ART-9 datapath.

The gate-level analyzer does not need a full RTL netlist: following the
paper, it consumes a block-structured description of the architecture
(Fig. 4) where each block lists how many primitive ternary gates it uses and
which gate chain forms its longest path.  The inventory below is derived
from the architecture of Sec. IV-B:

* a 9-trit TALU (ripple-carry adder/subtractor, trit-wise logic unit,
  two-stage shifter, comparator, result selection);
* the ternary register file (nine 9-trit registers with two read ports);
* the program counter, its increment adder and the ID-stage branch-target
  adder plus condition checker;
* the pipeline latches of the four stage boundaries;
* the forwarding multiplexers, the hazard detection unit and the main
  decoder.

The TIM and TDM memories are *not* part of the gate inventory (the paper
reports them separately as memory cells), but their sizes are carried along
for the FPGA resource model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hweval.technology import GateKind
from repro.ternary.word import WORD_TRITS

#: Word width used to size every block (9 trits).
W = WORD_TRITS


@dataclass
class DatapathBlock:
    """One architectural block: its gate counts and its longest gate chain."""

    name: str
    stage: str
    gates: Dict[str, int] = field(default_factory=dict)
    #: The longest combinational path through the block, as a sequence of
    #: gate kinds (used for the critical-delay estimate).
    critical_chain: Tuple[str, ...] = ()
    #: Position of the block on its stage's serial datapath.  Blocks with a
    #: position are chained (their delays add up); blocks without one sit on
    #: parallel side paths and only contribute if they are slower than the
    #: whole serial path.
    path_order: Optional[int] = None

    def gate_count(self) -> int:
        """Total number of primitive gates in the block."""
        return sum(self.gates.values())


def _block(name, stage, gates, critical=(), order=None):
    return DatapathBlock(name, stage, dict(gates), tuple(critical), order)


def art9_datapath_netlist() -> List[DatapathBlock]:
    """Return the block inventory of the 5-stage pipelined ART-9 core."""
    blocks = [
        # ------------------------------------------------------------ IF stage
        _block(
            "program_counter", "IF",
            # PC register plus the stall/redirect selection network.
            {GateKind.FLIPFLOP: W, GateKind.MUX: 2 * W},
            critical=(GateKind.MUX,),
        ),
        _block(
            "pc_increment_adder", "IF",
            {GateKind.HALF_ADDER: W},
            critical=(GateKind.HALF_ADDER,) * 3,  # carry chain is short for +1
        ),
        _block(
            "if_id_latch", "IF",
            {GateKind.FLIPFLOP: 2 * W},  # fetched instruction + its PC
        ),
        # ------------------------------------------------------------ ID stage
        _block(
            "main_decoder", "ID",
            {GateKind.DECODER: 40, GateKind.NTI: 8, GateKind.PTI: 8},
            critical=(GateKind.DECODER, GateKind.DECODER),
        ),
        _block(
            "register_file", "ID",
            # 9 registers x 9 trits of storage plus two read ports built from
            # two cascaded levels of 3:1 selection per trit and port.
            {GateKind.FLIPFLOP: 9 * W, GateKind.MUX: 2 * 4 * W, GateKind.DECODER: 9},
            critical=(GateKind.MUX, GateKind.MUX),
            order=0,
        ),
        _block(
            "immediate_extender", "ID",
            # Sign-extension / field-selection of the 2/3/4/5-trit immediates.
            {GateKind.MUX: W, GateKind.DECODER: 3},
            critical=(GateKind.MUX,),
        ),
        _block(
            "branch_target_adder", "ID",
            {GateKind.FULL_ADDER: W, GateKind.MUX: W},
            critical=(GateKind.FULL_ADDER,) * 4 + (GateKind.MUX,),
            order=1,
        ),
        _block(
            "branch_condition_checker", "ID",
            {GateKind.COMPARATOR: 2, GateKind.XOR: 2, GateKind.MUX: 4},
            critical=(GateKind.MUX, GateKind.COMPARATOR, GateKind.XOR),
            order=2,
        ),
        _block(
            "hazard_detection_unit", "ID",
            {GateKind.COMPARATOR: 6, GateKind.AND: 8, GateKind.OR: 6},
            critical=(GateKind.COMPARATOR, GateKind.AND, GateKind.OR),
        ),
        _block(
            "stall_control", "ID",
            # NOP insertion multiplexers driven by the stall control signal.
            {GateKind.MUX: 2 * W, GateKind.AND: 4},
            critical=(GateKind.AND, GateKind.MUX),
        ),
        _block(
            "id_ex_latch", "ID",
            {GateKind.FLIPFLOP: 3 * W + 8},  # two operands + immediate + control
        ),
        # ------------------------------------------------------------ EX stage
        _block(
            "forwarding_muxes", "EX",
            {GateKind.MUX: 2 * 2 * W, GateKind.COMPARATOR: 6},
            critical=(GateKind.COMPARATOR, GateKind.MUX, GateKind.MUX),
            order=0,
        ),
        _block(
            "talu_adder", "EX",
            # Ripple adder with an STI row on the second operand for SUB.
            {GateKind.FULL_ADDER: W, GateKind.STI: W, GateKind.MUX: W},
            critical=(GateKind.MUX, GateKind.STI) + (GateKind.FULL_ADDER,) * W,
            order=1,
        ),
        _block(
            "talu_logic_unit", "EX",
            {GateKind.AND: W, GateKind.OR: W, GateKind.XOR: W,
             GateKind.STI: W, GateKind.NTI: W, GateKind.PTI: W},
            critical=(GateKind.XOR,),
        ),
        _block(
            "talu_shifter", "EX",
            # Two mux stages shift by 1 or 3 trit positions (amounts 0..4
            # per instruction; larger shifts issue as multiple instructions).
            {GateKind.MUX: 2 * W},
            critical=(GateKind.MUX, GateKind.MUX),
        ),
        _block(
            "talu_comparator", "EX",
            {GateKind.COMPARATOR: W, GateKind.MUX: W - 1},
            critical=(GateKind.COMPARATOR,) + (GateKind.MUX,) * 3,
        ),
        _block(
            "talu_result_mux", "EX",
            {GateKind.MUX: 3 * W},
            critical=(GateKind.MUX, GateKind.MUX),
            order=2,
        ),
        _block(
            "ex_mem_latch", "EX",
            {GateKind.FLIPFLOP: 2 * W + 6},  # result/address + store data + control
        ),
        # ------------------------------------------------------------ MEM stage
        _block(
            "memory_interface", "MEM",
            {GateKind.MUX: W, GateKind.DECODER: 4},
            critical=(GateKind.MUX,),
        ),
        _block(
            "mem_wb_latch", "MEM",
            {GateKind.FLIPFLOP: W + 4},
        ),
        # ------------------------------------------------------------ WB stage
        _block(
            "writeback_mux", "WB",
            {GateKind.MUX: W},
            critical=(GateKind.MUX,),
        ),
    ]
    return blocks


#: Module-level inventory (convenient constant for reports and tests).
ART9_BLOCKS: List[DatapathBlock] = art9_datapath_netlist()


@dataclass
class MemorySizing:
    """Capacity of the ternary instruction/data memories for a deployment."""

    tim_words: int = 256
    tdm_words: int = 256
    word_trits: int = W

    @property
    def total_trits(self) -> int:
        """Total memory cells (trits) across TIM and TDM."""
        return (self.tim_words + self.tdm_words) * self.word_trits

    def binary_encoded_bits(self) -> int:
        """Bits needed when each trit is emulated with two bits (FPGA)."""
        return 2 * self.total_trits
