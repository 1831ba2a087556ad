"""Decoded instructions and pipeline latch payloads for the 5-stage ART-9 core.

:class:`DecodedInstruction` is one TIM word decoded once, when the
simulator is reset: operand fields, dataflow and the classification flags
every stage reads.  The simulator keeps its own decoded copy because
:class:`~repro.isa.instructions.Instruction` objects are mutable (the
translation passes rewrite their immediates and registers).

Each latch class models the ternary pipeline register between two stages
and carries the decoded record of the instruction in flight.  An empty
pipeline register (a bubble: the hardware would be holding the NOP selected
by the stall control signal of the main decoder) is ``None``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.instructions import Instruction
from repro.sim.machine import MachineConfig, resolve_machine
from repro.ternary.word import TernaryWord


class DecodedInstruction:
    """One instruction of the TIM, decoded for the pipeline.

    ``destination`` and ``sources`` are the register dataflow of
    :meth:`Instruction.destination` / :meth:`Instruction.sources`;
    ``predicts_taken`` is the machine's static fetch-time prediction.
    """

    __slots__ = ("instruction", "mnemonic", "ta", "tb", "imm", "branch_trit",
                 "destination", "sources", "reads_ta", "reads_tb", "is_alu",
                 "is_load", "is_store", "is_jump", "is_control", "is_halt",
                 "predicts_taken")

    def __init__(self, instruction: Instruction,
                 machine: Optional[MachineConfig] = None):
        spec = instruction.spec
        self.instruction = instruction
        self.mnemonic = instruction.mnemonic
        self.ta = instruction.ta
        self.tb = instruction.tb
        self.imm = instruction.imm
        self.branch_trit = instruction.branch_trit
        self.destination = instruction.destination()
        self.sources: Tuple[int, ...] = instruction.sources()
        self.reads_ta = spec.reads_ta
        self.reads_tb = spec.reads_tb
        self.is_alu = spec.category in ("R", "I")
        self.is_load = spec.is_load
        self.is_store = spec.is_store
        self.is_jump = spec.is_jump
        self.is_control = spec.is_control
        self.is_halt = self.mnemonic == "HALT"
        self.predicts_taken = resolve_machine(machine).predicts_taken(
            self.mnemonic, self.imm or 0)


class FetchLatch:
    """IF/ID pipeline register: the fetched instruction and its PC."""

    __slots__ = ("pc", "op")

    def __init__(self, pc: int, op: DecodedInstruction):
        self.pc = pc
        self.op = op


class DecodeLatch:
    """ID/EX pipeline register: decoded fields and register operands.

    ``operand_a`` / ``operand_b`` hold the values read from the TRF in ID;
    the forwarding unit may override them at the TALU inputs in EX.
    """

    __slots__ = ("pc", "op", "operand_a", "operand_b", "link_value")

    def __init__(self, pc: int, op: DecodedInstruction,
                 operand_a: Optional[TernaryWord] = None,
                 operand_b: Optional[TernaryWord] = None,
                 link_value: Optional[int] = None):
        self.pc = pc
        self.op = op
        self.operand_a = operand_a
        self.operand_b = operand_b
        self.link_value = link_value


class ExecuteLatch:
    """EX/MEM pipeline register: the TALU result or memory request."""

    __slots__ = ("pc", "op", "alu_result", "store_value", "memory_address")

    def __init__(self, pc: int, op: DecodedInstruction,
                 alu_result: Optional[TernaryWord] = None,
                 store_value: Optional[TernaryWord] = None,
                 memory_address: Optional[int] = None):
        self.pc = pc
        self.op = op
        self.alu_result = alu_result
        self.store_value = store_value
        self.memory_address = memory_address


class MemoryLatch:
    """MEM/WB pipeline register: the value to commit to the TRF."""

    __slots__ = ("pc", "op", "writeback_value")

    def __init__(self, pc: int, op: DecodedInstruction,
                 writeback_value: Optional[TernaryWord] = None):
        self.pc = pc
        self.op = op
        self.writeback_value = writeback_value
