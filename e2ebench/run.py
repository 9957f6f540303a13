#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the library, runner_daemon and the e2ebench binary from source
into .bench_build (CMake, Release), writes the workload's config files
from the seed, runs the binary and forwards its output. The last line
of stdout is the JSON result; build output goes to stderr. See
e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tablev_discovery", "multisecret_detector", "fleet_grid")
RUN_TIMEOUT_S = 175

# Table V (paper): 1-set 4-way LRU cache, attacker 0-4, victim 0 or no
# access, 16-step window, one stream. The seeds stay fixed so the run
# reproduces the headline discovery exactly: across PPO seeds the
# epochs to converge vary far more than any change to the code would
# move them. The benchmark seed feeds the probe inputs only.
TABLEV = """\
num_sets = 1
num_ways = 4
rep_policy = lru
attack_addr_s = 0
attack_addr_e = 4
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 16
scenario = guessing_game
num_streams = 1
threaded_envs = false
batch_env = false
steps_per_epoch = 3000
hidden = 128
layers = 2
max_epochs = 150
target_accuracy = 0.97
eval_episodes = 100
seed = 1
ppo_seed = 1
"""

# Table VIII cache: 4-set direct-mapped, victim 0-3, attacker 4-7,
# 160-step multi-secret episodes, against CC-Hunter; a fixed epoch
# budget so the work per campaign does not depend on the seed.
MULTISECRET = """\
num_sets = 4
num_ways = 1
rep_policy = lru
address_space = 8
attack_addr_s = 4
attack_addr_e = 7
victim_addr_s = 0
victim_addr_e = 3
victim_no_access_enable = false
multi_secret = true
multi_secret_episode_steps = 160
window_size = 16
num_streams = 4
batch_env = true
steps_per_epoch = 3000
eval_episodes = 100
sweep.name = multisecret_detector
sweep.scenarios = cchunter_bypass
sweep.seeds = {seed}
phase[0].max_epochs = 10
"""

# Short fixed-budget cells across the hierarchy and channel scenarios,
# checkpointed every epoch, on 3 daemons.
FLEET = """\
num_sets = 1
num_ways = 4
attack_addr_s = 0
attack_addr_e = 4
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 20
tlb.num_sets = 1
tlb.num_ways = 2
steps_per_epoch = 1000
eval_episodes = 60
sweep.name = fleet_grid
sweep.scenarios = l1l2_private, l2_exclusive, three_level, tlb_evict, prefetch_probe
sweep.policies = lru, plru
sweep.seeds = {seeds}
sweep.checkpoint_interval = 1
sweep.dist_retries = 1
phase[0].max_epochs = 2
"""


def workload_config(workload, seed):
    if workload == "tablev_discovery":
        return TABLEV
    if workload == "multisecret_detector":
        return MULTISECRET.format(seed=seed)
    seeds = ", ".join(str(seed * 4 + k) for k in range(4))
    return FLEET.format(seeds=seeds)


def build(build_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_dir = os.path.join(ROOT, ".bench_build")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    run_dir = os.path.join(build_dir, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "workload.cfg")
    with open(config, "w") as f:
        f.write(workload_config(args.workload, args.seed))

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--config", config,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--seed", str(args.seed), "--work-dir", run_dir,
           "--daemon", os.path.join(build_dir, "autocat", "runner_daemon")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)

    def stop(signum, _frame):
        # Killed from outside: take the binary down with its group;
        # its daemons follow through PR_SET_PDEATHSIG.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    text = out.decode()
    if proc.returncode in (0, 1) and not metrics_match(text, args.trace):
        return 4
    sys.stdout.write(text)
    sys.stdout.flush()
    return proc.returncode


def metrics_match(text, trace):
    """The result must name exactly the metrics BENCHMARK.json lists
    for its mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    lines = text.strip().splitlines()
    got = {name: m["unit"]
           for name, m in json.loads(lines[-1])["metrics"].items()}
    if got != want:
        print("e2ebench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(got.items()) ^ set(want.items())),
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
