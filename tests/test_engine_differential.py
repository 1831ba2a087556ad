"""Differential validation of the fast execution engine.

Three layers of evidence that ``repro.sim.engine`` is a faithful drop-in for
the object-model simulators:

* operation-level cross-checks of the integer arithmetic against the
  trit-by-trit reference implementations in ``repro.ternary``;
* whole-program equivalence on all four bundled workloads (registers,
  memory, PC, instruction mix **and** every pipeline statistic);
* a 500-program seeded fuzzing sweep through ``repro.testing``.
"""

import pytest

from repro.framework import HardwareFramework, SoftwareFramework
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim import FastEngine, FunctionalSimulator, PipelineSimulator, SimulationError
from repro.sim import engine as _engine
from repro.sim.engine import HALF, MOD, execute_program, wrap
from repro.ternary.arithmetic import (
    add_words,
    compare_words,
    shift_left,
    shift_right,
    sub_words,
)
from repro.ternary.conversion import int_to_trits
from repro.ternary.logic import word_and, word_nti, word_or, word_pti, word_xor
from repro.ternary.trit import trit_nti, trit_pti
from repro.ternary.word import TernaryWord
from repro.testing import fuzz, generate_program, run_differential
from repro.testing.differential import STATS_FIELDS
from repro.workloads import all_workloads

# Deterministic operand sample spanning small values, extremes and wrap edges.
_SAMPLE = (
    0, 1, -1, 2, -2, 3, -3, 13, -13, 40, -40, 121, -121, 364, -364,
    1093, -1093, 4000, -4000, 9000, -9000, 9840, -9840, 9841, -9841,
)


class TestWrapArithmetic:
    def test_wrap_matches_ternary_word_constructor(self):
        for value in range(-3 * MOD, 3 * MOD, 97):
            assert wrap(value) == TernaryWord(value).value

    @pytest.mark.parametrize("a", _SAMPLE)
    @pytest.mark.parametrize("b", (0, 1, -1, 121, -121, 9841, -9841))
    def test_add_sub_comp_match_trit_reference(self, a, b):
        wa, wb = TernaryWord(a), TernaryWord(b)
        assert wrap(a + b) == add_words(wa, wb).value
        assert wrap(a - b) == sub_words(wa, wb).value
        assert (a > b) - (a < b) == compare_words(wa, wb)

    @pytest.mark.parametrize("amount", range(9))
    def test_shifts_match_trit_reference(self, amount):
        for value in _SAMPLE:
            word = TernaryWord(value)
            assert wrap(value * 3 ** amount) == shift_left(word, amount).value
            p = 3 ** amount
            h = (p - 1) // 2
            expected = (value - ((value + h) % p - h)) // p
            assert expected == shift_right(word, amount).value

    def test_gates_match_trit_reference(self):
        ops = {"AND": word_and, "OR": word_or, "XOR": word_xor}
        for mnemonic, reference in ops.items():
            for a in _SAMPLE[:12]:
                for b in _SAMPLE[:12]:
                    program = _register_program(
                        a, b, Instruction(mnemonic, ta=1, tb=2)
                    )
                    result = execute_program(program)
                    expected = reference(TernaryWord(a), TernaryWord(b)).value
                    assert result.register("T1") == expected, (mnemonic, a, b)

    def test_value_tables_match_trit_reference(self):
        # Every entry of the three lookup tables, against tables rebuilt
        # digit by digit from the ternary reference helpers.
        _engine._build_tables()
        expected_trits, expected_pti, expected_nti = [], [], []
        for unsigned in range(MOD):
            trits = int_to_trits(unsigned, 9)
            expected_trits.append(tuple(trits))
            expected_pti.append(sum(trit_pti(t) * 3 ** k for k, t in enumerate(trits)))
            expected_nti.append(sum(trit_nti(t) * 3 ** k for k, t in enumerate(trits)))
        assert len(_engine._TRITS) == MOD
        for unsigned in range(MOD):
            assert _engine._TRITS[unsigned] == expected_trits[unsigned], unsigned
            assert _engine._PTI_WORD[unsigned] == expected_pti[unsigned], unsigned
            assert _engine._NTI_WORD[unsigned] == expected_nti[unsigned], unsigned

    def test_inverters_match_trit_reference(self):
        for mnemonic, reference in (("PTI", word_pti), ("NTI", word_nti)):
            for value in _SAMPLE:
                program = _register_program(0, value, Instruction(mnemonic, ta=1, tb=2))
                result = execute_program(program)
                assert result.register("T1") == reference(TernaryWord(value)).value


def _register_program(a, b, *instructions) -> Program:
    """A program that materialises T1=a, T2=b then runs ``instructions``."""
    from repro.isa.assembler import split_constant

    program = Program(name="unit")
    for reg, value in ((1, a), (2, b)):
        high, low = split_constant(value)
        program.append(Instruction("LUI", ta=reg, imm=high))
        program.append(Instruction("LI", ta=reg, imm=low))
    program.extend(instructions)
    program.append(Instruction("HALT"))
    return program


@pytest.fixture(scope="module")
def translated_workloads():
    software = SoftwareFramework()
    return {
        name: software.compile_workload(workload)[0]
        for name, workload in all_workloads().items()
    }


@pytest.mark.parametrize("name", ["bubble_sort", "gemm", "sobel", "dhrystone"])
class TestWorkloadEquivalence:
    def test_execution_result_is_bit_identical(self, name, translated_workloads):
        program = translated_workloads[name]
        fast = FastEngine(program).run()
        reference = FunctionalSimulator(program).run()
        assert fast.registers == reference.registers
        assert fast.memory == reference.memory
        assert fast.pc == reference.pc
        assert fast.halted and reference.halted
        assert fast.instructions_executed == reference.instructions_executed
        assert fast.instruction_mix == reference.instruction_mix

    def test_pipeline_stats_are_bit_identical(self, name, translated_workloads):
        program = translated_workloads[name]
        fast_stats = FastEngine(program).run_with_stats()
        pipeline_stats = PipelineSimulator(program).run()
        for field in STATS_FIELDS:
            assert getattr(fast_stats, field) == getattr(pipeline_stats, field), field
        assert fast_stats.instruction_mix == pipeline_stats.instruction_mix

    def test_workload_results_check_out_on_the_engine(self, name, translated_workloads):
        workload = all_workloads()[name]
        engine = FastEngine(translated_workloads[name])
        engine.run()
        workload.check_ternary_results(engine)  # raises on mismatch


class TestHardwareFrameworkEngines:
    def test_both_engines_report_identical_cycles(self, translated_workloads):
        program = translated_workloads["bubble_sort"]
        framework = HardwareFramework()
        fast = framework.simulate(program, engine="fast")
        pipe = framework.simulate(program, engine="pipeline")
        assert fast.cycles == pipe.cycles
        assert fast.stall_cycles == pipe.stall_cycles

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            HardwareFramework(engine="quantum")
        with pytest.raises(ValueError):
            HardwareFramework().simulate(Program(instructions=[Instruction("HALT")]),
                                         engine="quantum")


class TestEngineContract:
    def test_runaway_program_raises(self):
        program = assemble("loop:\nJAL T6, loop")
        with pytest.raises(SimulationError):
            FastEngine(program).run(max_instructions=500)

    def test_pc_escape_raises(self):
        program = assemble("ADDI T1, 1")  # no HALT
        with pytest.raises(SimulationError):
            FastEngine(program).run()

    def test_empty_program_rejected_by_timing_model(self):
        with pytest.raises(SimulationError):
            FastEngine(Program()).run_with_stats()

    def test_single_halt_costs_five_cycles(self):
        stats = FastEngine(assemble("HALT")).run_with_stats()
        assert stats.cycles == 5
        assert stats.instructions_committed == 1

    def test_timing_model_rejects_consumed_engine_state(self):
        program = assemble("ADDI T1, 1\nHALT")
        engine = FastEngine(program)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run_with_stats()

    def test_reduced_depth_memory_fault_matches_functional(self):
        from repro.sim import MemoryError_

        program = assemble("LI T2, 100\nSTORE T1, T2, 0\nHALT")
        with pytest.raises(MemoryError_):
            FastEngine(program, tdm_depth=64).run()
        with pytest.raises(MemoryError_):
            FunctionalSimulator(program, tdm_depth=64).run()
        fast = FastEngine(program, tdm_depth=64)
        functional = FunctionalSimulator(program, tdm_depth=64)
        for simulator in (fast, functional):
            with pytest.raises(MemoryError_):
                simulator.run()
        assert fast.instructions_executed == functional.instructions_executed == 1

    def test_memory_view_matches_functional_tdm(self):
        program = assemble(
            "LI T1, 77\nLI T2, 5\nSTORE T1, T2, 0\nSTORE T1, T2, 1\nHALT"
        )
        engine = FastEngine(program)
        engine.run()
        functional = FunctionalSimulator(program)
        functional.run()
        assert engine.tdm.read_int(5) == functional.tdm.read_int(5) == 77
        assert engine.tdm.dump(5, 2) == functional.tdm.dump(5, 2)
        assert engine.tdm.contents() == functional.tdm.contents()


class TestDifferentialFuzzing:
    def test_500_seeded_programs_agree_across_all_executors(self):
        report = fuzz(count=500, seed=0, check_pipeline=True)
        assert report.ok, "\n".join(
            f"{failure.program_name}: {failure.mismatches}"
            for failure in report.failures
        )
        assert report.programs_run == 500
        assert report.instructions_executed > 5_000

    def test_generator_is_deterministic(self):
        first = generate_program(42)
        second = generate_program(42)
        assert [i.render() for i in first.instructions] == [
            i.render() for i in second.instructions
        ]

    def test_run_differential_reports_clean_outcome(self):
        outcome = run_differential(generate_program(7))
        assert outcome.ok
        assert outcome.cycles is not None

    def test_exhausted_budget_is_agreement_not_a_crash(self):
        # Both executors must fail the budget identically; that agreement is
        # reported, not raised.
        outcome = run_differential(generate_program(7), max_instructions=1)
        assert outcome.ok
        assert outcome.budget_exhausted
        report = fuzz(count=3, seed=7, max_instructions=1)
        assert report.ok
        assert report.budget_exhausted == 3
        assert "hit the instruction budget" in report.summary()
