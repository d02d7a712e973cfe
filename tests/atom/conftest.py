import pytest

from repro.machine import run_module
from repro.mlc import build_analysis_unit, build_executable


@pytest.fixture(scope="session")
def build_app():
    cache = {}

    def builder(source: str):
        if source not in cache:
            cache[source] = build_executable([source])
        return cache[source]
    return builder


@pytest.fixture(scope="session")
def build_analysis():
    cache = {}

    def builder(source: str):
        if source not in cache:
            cache[source] = build_analysis_unit([source])
        return cache[source]
    return builder


@pytest.fixture
def run():
    def runner(module, **kw):
        return run_module(module, **kw)
    return runner


#: A small application with loops, branches, calls, loads/stores and heap.
APP_SOURCE = r"""
long total;

long mix(long a, long b) {
    return a * 3 + b;
}

int main() {
    long i;
    long *buf = (long *)malloc(16 * sizeof(long));
    for (i = 0; i < 16; i++) {
        if (i % 3 == 0) buf[i] = mix(i, 1);
        else buf[i] = i;
    }
    for (i = 0; i < 16; i++) total += buf[i];
    printf("total=%d\n", total);
    return 0;
}
"""

#: Analysis routines covering counters and file output.
COUNTER_ANALYSIS = r"""
long counters[64];
FILE *out;

void Count(long n) {
    counters[n]++;
}

void CountBy(long n, long amount) {
    counters[n] += amount;
}

void Report(void) {
    long i;
    out = fopen("counts.out", "w");
    for (i = 0; i < 64; i++) {
        if (counters[i]) fprintf(out, "%d %d\n", i, counters[i]);
    }
    fclose(out);
}
"""


@pytest.fixture(scope="session")
def app(build_app):
    return build_app(APP_SOURCE)


@pytest.fixture(scope="session")
def counter_analysis(build_analysis):
    return build_analysis(COUNTER_ANALYSIS)


def parse_counts(result):
    out = {}
    for line in result.files["counts.out"].decode().splitlines():
        key, value = line.split()
        out[int(key)] = int(value)
    return out


@pytest.fixture
def prepared_units(monkeypatch):
    """An empty memo of prepared analysis units, and a list that gets
    the targets of each rewrite that prepares a unit (a memo miss)
    instead of reusing one."""
    from repro.atom import instrument
    monkeypatch.setattr(instrument, "_prepared", {})
    prepared = []
    compute_plans = instrument.compute_plans

    def counting(*args, **kwargs):
        prepared.append(args[1])
        return compute_plans(*args, **kwargs)

    monkeypatch.setattr(instrument, "compute_plans", counting)
    return prepared
