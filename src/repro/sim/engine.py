"""Fast-path execution engine for ART-9 programs.

The object-model simulators (:class:`~repro.sim.functional.FunctionalSimulator`
and the cycle-accurate pipeline) execute every instruction through per-trit
``TernaryWord``/``Trit`` churn: each ADD allocates a tuple of nine trits, each
register read returns an immutable word object, and so on.  That is the right
representation for gate-level attribution, but it is far too slow for large
workload sweeps.

:class:`FastEngine` is the speed-oriented counterpart.  It pre-decodes each
:class:`~repro.isa.program.Program` once into flat dispatch records (small-int
opcode tag, register indices, plain-int immediate) and then executes on Python
integers, with balanced-ternary wraparound done arithmetically instead of
digit-by-digit.  Per-trit operations (the AND/OR/XOR gates and the PTI/NTI
inverters) use precomputed word tables over the 3**9 = 19 683 value universe,
so no ``TernaryWord`` is allocated anywhere on the hot path.

Two entry points are exposed:

``run()``
    Architectural execution behind the exact :class:`ExecutionResult`
    contract of the functional simulator (bit-identical registers, memory,
    PC, halt flag and instruction mix).

``run_with_stats()``
    Architectural execution plus an analytic timing model of the 5-stage
    pipeline.  The ART-9 pipeline has only two stall sources — load-use
    hazards (one bubble) and taken control transfers (one flushed fetch) —
    so its cycle count and every :class:`PipelineStats` counter are a pure
    function of the dynamic instruction stream.  The model reproduces the
    pipeline simulator's statistics bit-identically (this is asserted by the
    differential tests in ``repro.testing``) at a fraction of the cost,
    which is what lets :class:`~repro.framework.hwflow.HardwareFramework`
    opt into the fast path for benchmarking.
"""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Dict, List, Optional, Tuple

from repro.isa.encoder import EncodeError
from repro.isa.formats import imm_range
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, register_name
from repro.sim.functional import ExecutionResult, SimulationError
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.memory import MemoryError_
from repro.sim.pipeline.stats import PipelineStats
from repro.ternary.word import WORD_TRITS

#: Modulus and half-range of the 9-trit balanced datapath.
MOD = 3 ** WORD_TRITS
HALF = (MOD - 1) // 2

# Small-int opcode tags of the dispatch records, roughly ordered by dynamic
# frequency in the translated workloads (the interpreter's if/elif chain
# tests them in this order).
OP_ADDI = 0
OP_ADD = 1
OP_LOAD = 2
OP_STORE = 3
OP_BEQ = 4
OP_BNE = 5
OP_LI = 6
OP_MV = 7
OP_SUB = 8
OP_JAL = 9
OP_JALR = 10
OP_LUI = 11
OP_COMP = 12
OP_SLI = 13
OP_SRI = 14
OP_SL = 15
OP_SR = 16
OP_AND = 17
OP_OR = 18
OP_XOR = 19
OP_PTI = 20
OP_NTI = 21
OP_STI = 22
OP_ANDI = 23
OP_HALT = 24

_OPCODES = {
    "ADDI": OP_ADDI, "ADD": OP_ADD, "LOAD": OP_LOAD, "STORE": OP_STORE,
    "BEQ": OP_BEQ, "BNE": OP_BNE, "LI": OP_LI, "MV": OP_MV, "SUB": OP_SUB,
    "JAL": OP_JAL, "JALR": OP_JALR, "LUI": OP_LUI, "COMP": OP_COMP,
    "SLI": OP_SLI, "SRI": OP_SRI, "SL": OP_SL, "SR": OP_SR, "AND": OP_AND,
    "OR": OP_OR, "XOR": OP_XOR, "PTI": OP_PTI, "NTI": OP_NTI, "STI": OP_STI,
    "ANDI": OP_ANDI, "HALT": OP_HALT,
}

_MNEMONIC_OF = {code: name for name, code in _OPCODES.items()}

#: Opcodes whose EX-stage product can be forwarded (R/I-type results and the
#: JAL/JALR link value; loads produce their value one stage later).
_ALU_WRITERS = frozenset(
    code for name, code in _OPCODES.items()
    if name not in ("LOAD", "STORE", "BEQ", "BNE", "HALT")
)

_POW3 = tuple(3 ** k for k in range(WORD_TRITS))

# Lazily built value tables, shared by every engine instance:
#   _TRITS[u]     little-endian 9-trit tuple of the word with unsigned index u
#   _PTI_WORD[u]  balanced value of the trit-wise PTI of that word
#   _NTI_WORD[u]  balanced value of the trit-wise NTI of that word
_TRITS: Optional[List[tuple]] = None
_PTI_WORD: Optional[List[int]] = None
_NTI_WORD: Optional[List[int]] = None


def wrap(value: int) -> int:
    """Wrap ``value`` into the balanced range of a 9-trit word.

    Arithmetic equivalent of dropping the carry out of the most significant
    trit of a fixed-width balanced adder.
    """
    return (value + HALF) % MOD - HALF


def _build_tables() -> None:
    global _TRITS, _PTI_WORD, _NTI_WORD
    if _TRITS is not None:
        return
    # product() yields big-endian tuples in ascending value order, so value
    # v sits at index v + HALF; unsigned order is 0..HALF, then -HALF..-1.
    ascending = chain(islice(product((-1, 0, 1), repeat=WORD_TRITS), HALF, None),
                      islice(product((-1, 0, 1), repeat=WORD_TRITS), HALF))
    trits_table = [trits[::-1] for trits in ascending]
    pti_table = nti_table = [0]
    for _ in range(WORD_TRITS):
        pti_table = _add_low_trit(pti_table, (1, 1, -1))
        nti_table = _add_low_trit(nti_table, (1, -1, -1))
    _TRITS = trits_table
    _PTI_WORD = pti_table
    _NTI_WORD = nti_table


def _add_low_trit(table: List[int], image: Tuple[int, int, int]) -> List[int]:
    """Extend a k-trit word table to k + 1 trits by a new least significant trit.

    ``table[u]`` is the value of a trit-wise gate applied to the k-trit word
    of unsigned index ``u``; ``image`` is the gate's output for the trits
    (-1, 0, 1).  A (k + 1)-trit word of unsigned index ``3u + t`` has upper
    word ``u`` and low trit ``t``, except that index ``3**(k+1) - 1`` is the
    word -1 (upper word 0, low trit -1), so walking the unsigned order takes
    ``u = 0`` with ``t = 0, 1`` first and ``t = -1`` last.
    """
    on_neg, on_zero, on_pos = image
    zero_upper = table[0] * 3
    extended = [zero_upper + on_zero, zero_upper + on_pos]
    extended += [upper * 3 + low for upper in islice(table, 1, None)
                 for low in image]
    extended.append(zero_upper + on_neg)
    return extended


class _MemoryView:
    """Read-only ``TernaryMemory``-shaped facade over the engine's int cells.

    Provides the ``read_int``/``dump`` surface that the workload result
    checkers and inspection helpers expect, so a :class:`FastEngine` can be
    dropped in wherever a finished simulator is examined.
    """

    def __init__(self, cells: Dict[int, int], depth: int):
        self._cells = cells
        self.depth = depth

    def read_int(self, address: int) -> int:
        if not 0 <= address < self.depth:
            raise MemoryError_(
                f"TDM: address {address} out of range 0..{self.depth - 1}"
            )
        return self._cells.get(address, 0)

    def dump(self, base: int, count: int) -> List[int]:
        return [self.read_int(base + offset) for offset in range(count)]

    def contents(self) -> Dict[int, int]:
        """Touched cells as an address → balanced-value mapping."""
        return dict(self._cells)


class FastEngine:
    """Pre-decoded integer interpreter for ART-9 programs.

    Parameters mirror :class:`FunctionalSimulator`: a program and the TDM
    depth.  The engine validates operands at pre-decode time (raising
    :class:`EncodeError` like the encoding path would) so malformed programs
    fail fast rather than corrupting the integer state.
    """

    def __init__(self, program: Program, tdm_depth: int = MOD,
                 machine: Optional[MachineConfig] = None):
        _build_tables()
        self.program = program
        self.tdm_depth = tdm_depth
        self.machine = resolve_machine(machine)
        self._records = self._predecode(program)
        self._mem: Dict[int, int] = {}
        for segment in program.data:
            for offset, value in enumerate(segment.values):
                address = segment.base_address + offset
                if not 0 <= address < tdm_depth:
                    raise MemoryError_(
                        f"TDM: address {address} out of range 0..{tdm_depth - 1}"
                    )
                self._mem[address] = wrap(value)
        self._regs = [0] * NUM_REGISTERS
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        self._exec_counts = [0] * len(self._records)

    # -- pre-decoding -------------------------------------------------------

    @staticmethod
    def _predecode(program: Program) -> List[Tuple[int, int, int, int, int]]:
        records = []
        for address, instruction in enumerate(program.instructions):
            spec = instruction.spec
            try:
                op = _OPCODES[instruction.mnemonic]
            except KeyError:
                raise SimulationError(
                    f"unimplemented mnemonic {instruction.mnemonic!r} at address {address}"
                ) from None
            ta = instruction.ta if instruction.ta is not None else 0
            tb = instruction.tb if instruction.tb is not None else 0
            imm = instruction.imm if instruction.imm is not None else 0
            bt = instruction.branch_trit if instruction.branch_trit is not None else 0
            if "ta" in spec.operands and instruction.ta is None:
                raise EncodeError(f"{instruction.mnemonic} requires a Ta operand")
            if "tb" in spec.operands and instruction.tb is None:
                raise EncodeError(f"{instruction.mnemonic} requires a Tb operand")
            if not 0 <= ta < NUM_REGISTERS or not 0 <= tb < NUM_REGISTERS:
                raise EncodeError(f"register index out of range in {instruction.render()}")
            if spec.uses_imm:
                if instruction.imm is None:
                    raise EncodeError(
                        f"{instruction.mnemonic} at address {address} has an "
                        "unresolved immediate (label not resolved?)"
                    )
                lo, hi = imm_range(instruction.mnemonic)
                if not lo <= imm <= hi:
                    raise EncodeError(
                        f"immediate {imm} does not fit {instruction.mnemonic}"
                    )
            if "branch_trit" in spec.operands and bt not in (-1, 0, 1):
                raise EncodeError(f"branch trit must be balanced, got {bt}")
            records.append((op, ta, tb, imm, bt))
        return records

    # -- architectural execution --------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> ExecutionResult:
        """Run until HALT; same contract and limits as the functional model."""
        self._execute(max_instructions, timing=None)
        return self._result()

    def _result(self) -> ExecutionResult:
        return ExecutionResult(
            instructions_executed=self.instructions_executed,
            halted=self.halted,
            registers=self.registers_snapshot(),
            pc=self.pc,
            instruction_mix=self.instruction_mix(),
            memory=dict(self._mem),
        )

    def _execute(self, max_instructions, timing: Optional[PipelineStats]) -> None:
        # Hot loop: every mutable piece of state is bound to a local.
        records = self._records
        program_length = len(records)
        regs = self._regs
        mem = self._mem
        counts = self._exec_counts
        depth = self.tdm_depth
        check_depth = depth != MOD
        trits_table = _TRITS
        pti_table = _PTI_WORD
        nti_table = _NTI_WORD
        pc = self.pc
        executed = self.instructions_executed
        halted = self.halted
        reads_table = _READS

        # Analytic pipeline timing (only when ``timing`` is a stats object):
        # a rolling two-instruction window over the committed stream is all
        # the pipe's stall/forwarding behaviour depends on, so the model is
        # O(1) in memory and single-pass.  p1_* describe I_{k-1}, p2_dest
        # describes I_{k-2}; gap_prev is the bubble count between them.  The
        # machine config contributes only constants: the pipe fill, the
        # per-redirect penalty, which transfers redirect under the branch
        # policy, and whether adjacent load consumers stall or bypass.
        model_timing = timing is not None
        machine = self.machine
        fill = machine.fill_cycles
        redirect_penalty = machine.redirect_penalty
        load_penalty = machine.load_use_penalty
        btfn = machine.branch_policy == "static-btfn"
        jal_redirects = not machine.folds_jal
        stalls = flushes = 0
        taken_branches = not_taken = jumps = 0
        ex_forwards = mem_forwards = id_forwards = 0
        p1_dest = p2_dest = -1
        p1_load = p1_alu = False
        p1_redirect_gap = 0
        gap_prev = 0
        first_commit = True

        while not halted:
            if executed >= max_instructions:
                self.pc, self.instructions_executed = pc, executed
                raise SimulationError(
                    f"program did not halt within {max_instructions} instructions"
                )
            if not 0 <= pc < program_length:
                self.pc, self.instructions_executed = pc, executed
                raise SimulationError(
                    f"PC {pc} outside program of {program_length} instructions"
                )
            op, ta, tb, imm, bt = records[pc]
            counts[pc] += 1
            executed += 1
            next_pc = pc + 1
            branch_was_taken = False

            if model_timing:
                reads_ta, reads_tb, id_reads = reads_table[op]
                gap = 0
                if first_commit:
                    first_commit = False
                elif p1_redirect_gap:
                    gap = p1_redirect_gap
                    flushes += p1_redirect_gap
                elif p1_load and p1_dest >= 0 and (
                    (reads_ta and ta == p1_dest) or (reads_tb and tb == p1_dest)
                ):
                    # EX-path consumers bypass the fresh MEM output when the
                    # config waives the penalty; ID-path consumers (branch
                    # condition / JALR base) read a stage earlier and always
                    # stall one bubble.
                    if load_penalty or (id_reads and tb == p1_dest):
                        gap = 1
                        stalls += 1

                # Occupant of the MEM/WB slot two stages ahead (the same
                # instruction feeds the EX-stage MEM/WB mux and the ID-stage
                # memory-output path): I_{k-1} when one bubble separates
                # them, I_{k-2} when both gaps are empty, nobody when the
                # gap is a multi-bubble redirect shadow.
                if gap == 1:
                    wb_dest = p1_dest
                elif gap == 0 and gap_prev == 0:
                    wb_dest = p2_dest
                else:
                    wb_dest = -1

                # EX-stage forwarding events (one per matched operand read).
                # The middle branch is the zero-penalty load bypass: a fresh
                # MEM output feeding EX in the same cycle (unreachable when
                # the config charges a load-use bubble).
                if reads_ta:
                    if gap == 0 and p1_alu and p1_dest == ta:
                        ex_forwards += 1
                    elif gap == 0 and p1_load and p1_dest == ta:
                        mem_forwards += 1
                    elif wb_dest >= 0 and wb_dest == ta:
                        mem_forwards += 1
                if reads_tb:
                    if gap == 0 and p1_alu and p1_dest == tb:
                        ex_forwards += 1
                    elif gap == 0 and p1_load and p1_dest == tb:
                        mem_forwards += 1
                    elif wb_dest >= 0 and wb_dest == tb:
                        mem_forwards += 1

                # ID-stage forwarding (branch condition / JALR base path).
                if id_reads:
                    if gap == 0 and p1_alu and p1_dest == tb:
                        id_forwards += 1
                    elif wb_dest >= 0 and wb_dest == tb:
                        id_forwards += 1
                gap_prev = gap

            if op == OP_ADDI:
                v = regs[ta] + imm
                if v > HALF:
                    v -= MOD
                elif v < -HALF:
                    v += MOD
                regs[ta] = v
            elif op == OP_ADD:
                v = regs[ta] + regs[tb]
                if v > HALF:
                    v -= MOD
                elif v < -HALF:
                    v += MOD
                regs[ta] = v
            elif op == OP_LOAD:
                address = (regs[tb] + imm) % MOD
                if check_depth and address >= depth:
                    # The faulting access aborts before the instruction counts,
                    # mirroring the functional simulator's TernaryMemory check.
                    counts[pc] -= 1
                    self.pc, self.instructions_executed = pc, executed - 1
                    raise MemoryError_(
                        f"TDM: address {address} out of range 0..{depth - 1}"
                    )
                regs[ta] = mem.get(address, 0)
            elif op == OP_STORE:
                address = (regs[tb] + imm) % MOD
                if check_depth and address >= depth:
                    counts[pc] -= 1
                    self.pc, self.instructions_executed = pc, executed - 1
                    raise MemoryError_(
                        f"TDM: address {address} out of range 0..{depth - 1}"
                    )
                mem[address] = regs[ta]
            elif op == OP_BEQ or op == OP_BNE:
                lst = (regs[tb] + 1) % 3 - 1
                branch_was_taken = (lst == bt) if op == OP_BEQ else (lst != bt)
                if branch_was_taken:
                    next_pc = pc + imm
            elif op == OP_LI:
                v = regs[ta]
                regs[ta] = imm + v - ((v + 121) % 243 - 121)
            elif op == OP_MV:
                regs[ta] = regs[tb]
            elif op == OP_SUB:
                v = regs[ta] - regs[tb]
                if v > HALF:
                    v -= MOD
                elif v < -HALF:
                    v += MOD
                regs[ta] = v
            elif op == OP_JAL:
                regs[ta] = wrap(pc + 1)
                next_pc = pc + imm
            elif op == OP_JALR:
                base = regs[tb]
                regs[ta] = wrap(pc + 1)
                next_pc = (base + imm) % MOD
            elif op == OP_LUI:
                regs[ta] = wrap(imm * 243)
            elif op == OP_COMP:
                a = regs[ta]
                b = regs[tb]
                regs[ta] = (a > b) - (a < b)
            elif op == OP_SLI:
                regs[ta] = wrap(regs[ta] * _POW3[imm % 9])
            elif op == OP_SRI:
                amount = imm % 9
                p = _POW3[amount]
                h = (p - 1) // 2
                v = regs[ta]
                regs[ta] = (v - ((v + h) % p - h)) // p
            elif op == OP_SL:
                regs[ta] = wrap(regs[ta] * _POW3[regs[tb] % 9])
            elif op == OP_SR:
                p = _POW3[regs[tb] % 9]
                h = (p - 1) // 2
                v = regs[ta]
                regs[ta] = (v - ((v + h) % p - h)) // p
            elif op == OP_AND or op == OP_OR or op == OP_XOR:
                trits_a = trits_table[regs[ta] % MOD]
                trits_b = trits_table[regs[tb] % MOD]
                v = 0
                if op == OP_AND:
                    for k in range(WORD_TRITS - 1, -1, -1):
                        x = trits_a[k]
                        y = trits_b[k]
                        v = v * 3 + (x if x < y else y)
                elif op == OP_OR:
                    for k in range(WORD_TRITS - 1, -1, -1):
                        x = trits_a[k]
                        y = trits_b[k]
                        v = v * 3 + (x if x > y else y)
                else:
                    for k in range(WORD_TRITS - 1, -1, -1):
                        s = trits_a[k] + trits_b[k]
                        if s == 2:
                            s = -1
                        elif s == -2:
                            s = 1
                        v = v * 3 + s
                regs[ta] = v
            elif op == OP_PTI:
                regs[ta] = pti_table[regs[tb] % MOD]
            elif op == OP_NTI:
                regs[ta] = nti_table[regs[tb] % MOD]
            elif op == OP_STI:
                regs[ta] = -regs[tb]
            elif op == OP_ANDI:
                trits_a = trits_table[regs[ta] % MOD]
                trits_b = trits_table[imm % MOD]
                v = 0
                for k in range(WORD_TRITS - 1, -1, -1):
                    x = trits_a[k]
                    y = trits_b[k]
                    v = v * 3 + (x if x < y else y)
                regs[ta] = v
            else:  # OP_HALT
                halted = True

            if model_timing:
                if op == OP_BEQ or op == OP_BNE:
                    if branch_was_taken:
                        taken_branches += 1
                    else:
                        not_taken += 1
                    if btfn:
                        # Static BTFN predicts backward branches taken.
                        mispredicted = branch_was_taken != (imm <= 0)
                    else:
                        mispredicted = branch_was_taken
                    p1_redirect_gap = redirect_penalty if mispredicted else 0
                elif op == OP_JAL or op == OP_JALR:
                    jumps += 1
                    if op == OP_JALR or jal_redirects:
                        p1_redirect_gap = redirect_penalty
                    else:
                        p1_redirect_gap = 0
                else:
                    p1_redirect_gap = 0
                p2_dest = p1_dest
                if op in _WRITERS:
                    p1_dest = ta
                    p1_alu = op != OP_LOAD
                else:
                    p1_dest = -1
                    p1_alu = False
                p1_load = op == OP_LOAD

            pc = next_pc

        self.pc = pc
        self.instructions_executed = executed
        self.halted = halted

        if model_timing:
            timing.instructions_committed = executed
            timing.cycles = executed + fill + stalls + flushes
            timing.load_use_stalls = stalls
            timing.control_flush_bubbles = flushes
            timing.taken_branches = taken_branches
            timing.not_taken_branches = not_taken
            timing.jumps = jumps
            timing.ex_forwards = ex_forwards
            timing.mem_forwards = mem_forwards
            timing.id_forwards = id_forwards
            timing.instruction_mix = self.instruction_mix()

    # -- analytic pipeline timing -------------------------------------------

    def run_with_stats(self, max_cycles: int = 50_000_000) -> PipelineStats:
        """Execute and return pipeline statistics identical to the pipeline model.

        The ART-9 pipeline commits exactly one instruction per cycle except
        for the two hardware stall sources (Sec. IV-B): a load-use stall and
        a flush shadow behind every front-end redirect, plus the machine
        config's constant pipe fill.  Under the default ``paper3stage``
        config these are one bubble per adjacent load consumer, one bubble
        per taken control transfer and a four-cycle fill — the paper's
        numbers.  Both stall sources and all forwarding events are
        determined by adjacency in the dynamic instruction stream, so the
        model runs single-pass inside the execution loop with a
        constant-size rolling window for any :class:`MachineConfig`.
        """
        if not self.program.instructions:
            raise SimulationError("cannot simulate an empty program")
        if self.instructions_executed or self.halted:
            raise SimulationError(
                "engine state already consumed; build a fresh FastEngine for "
                "timing statistics"
            )
        stats = PipelineStats()
        self._execute(max_cycles, stats)
        if stats.cycles > max_cycles:
            raise SimulationError(
                f"program did not halt within {max_cycles} cycles"
            )
        return stats

    # -- inspection helpers -------------------------------------------------

    @property
    def tdm(self) -> _MemoryView:
        """Workload-checker-compatible view of the ternary data memory."""
        return _MemoryView(self._mem, self.tdm_depth)

    def registers_snapshot(self) -> Dict[str, int]:
        """Name → integer value of the architectural registers."""
        return {register_name(i): value for i, value in enumerate(self._regs)}

    def register_snapshot(self) -> Dict[str, int]:
        """Alias matching the pipeline simulator's accessor name."""
        return self.registers_snapshot()

    def instruction_mix(self) -> Dict[str, int]:
        """Mnemonic → dynamic execution count."""
        mix: Dict[str, int] = {}
        records = self._records
        for index, count in enumerate(self._exec_counts):
            if count:
                mnemonic = _MNEMONIC_OF[records[index][0]]
                mix[mnemonic] = mix.get(mnemonic, 0) + count
        return mix

    def memory_values(self, base: int, count: int) -> List[int]:
        """Read ``count`` consecutive TDM words starting at ``base``."""
        return self.tdm.dump(base, count)


#: Opcodes that write their Ta register (used by the timing model).
_WRITERS = frozenset(
    code for name, code in _OPCODES.items()
    if name not in ("STORE", "BEQ", "BNE", "HALT")
)

#: Per-opcode operand-read profile: (reads_ta, reads_tb, id_reads_tb).
#: ``id_reads_tb`` marks the control instructions whose Tb value is consumed
#: by the ID-stage branch unit (BEQ/BNE condition trit, JALR base address).
def _build_reads() -> Dict[int, Tuple[bool, bool, bool]]:
    from repro.isa.instructions import INSTRUCTION_SPECS

    reads = {}
    for name, code in _OPCODES.items():
        spec = INSTRUCTION_SPECS[name]
        reads[code] = (spec.reads_ta, spec.reads_tb, spec.is_control and spec.reads_tb)
    return reads


_READS = _build_reads()


def execute_program(program: Program, max_instructions: int = 10_000_000) -> ExecutionResult:
    """One-call convenience: run ``program`` on the fast engine."""
    return FastEngine(program).run(max_instructions=max_instructions)
