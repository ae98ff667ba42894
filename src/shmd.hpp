// Umbrella header: the public surface of the Stochastic-HMD library.
//
// Layering (each header is also usable on its own):
//
//   rng/, util/          leaf utilities (PRNGs, ApEn test, stats, tables)
//   faultsim/            the stochastic timing-fault injector (§II/§VI.A)
//   volt/                voltage domains, calibration, thermal governance
//   trace/               the program/trace/dataset substrate (§IV)
//   nn/                  networks, trainers, classifiers, FANN interchange
//   eval/                metrics, ROC, dataset adapters and CSV interchange
//   hmd/                 the detectors: baseline, Stochastic-HMD, RHMD,
//                        Ensemble-HMD, alarms, space exploration, bundles,
//                        and ProgramScorer, the one live scoring path
//   runtime/             the fork/join thread pool and worker-count rule
//   serve/               the always-on scoring service: bounded request
//                        queue, resident workers, epoch-swap moving target
//   attack/              the black-box evasion pipeline and white-box probe
//   net/                 the framed wire protocol, socket server, client
//   redteam/             end-to-end adaptive adversary campaigns against
//                        the live service (oracles, epoch rolling, fleets)
#pragma once

#include "attack/composite_proxy.hpp"
#include "attack/evasion.hpp"
#include "attack/oracle.hpp"
#include "attack/reverse_engineer.hpp"
#include "attack/transferability.hpp"
#include "attack/whitebox.hpp"
#include "eval/data_adapter.hpp"
#include "eval/dataset_io.hpp"
#include "eval/metrics.hpp"
#include "eval/roc.hpp"
#include "faultsim/bit_fault_distribution.hpp"
#include "faultsim/fault_injector.hpp"
#include "faultsim/faulty_alu.hpp"
#include "faultsim/fixed_point.hpp"
#include "hmd/alarm.hpp"
#include "hmd/baseline_hmd.hpp"
#include "hmd/builders.hpp"
#include "hmd/classifier_hmd.hpp"
#include "hmd/deployment.hpp"
#include "hmd/detector.hpp"
#include "hmd/ensemble_hmd.hpp"
#include "hmd/program_scorer.hpp"
#include "hmd/rhmd.hpp"
#include "hmd/space_exploration.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "hmd/train.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "nn/activation.hpp"
#include "nn/arithmetic.hpp"
#include "nn/classifier.hpp"
#include "nn/decision_tree.hpp"
#include "nn/fann_io.hpp"
#include "nn/logistic_regression.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "redteam/campaign.hpp"
#include "redteam/fleet.hpp"
#include "redteam/net_oracle.hpp"
#include "rng/entropy.hpp"
#include "rng/lgm_prng.hpp"
#include "rng/random_source.hpp"
#include "rng/splitmix64.hpp"
#include "rng/trng_sim.hpp"
#include "rng/xoshiro256ss.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/epoch.hpp"
#include "serve/request_queue.hpp"
#include "serve/scoring_service.hpp"
#include "serve/service_stats.hpp"
#include "sys/energy_meter.hpp"
#include "sys/latency_model.hpp"
#include "sys/memory_model.hpp"
#include "sys/power_model.hpp"
#include "trace/dataset.hpp"
#include "trace/families.hpp"
#include "trace/features.hpp"
#include "trace/hpc_collector.hpp"
#include "trace/isa.hpp"
#include "trace/program.hpp"
#include "trace/program_factory.hpp"
#include "trace/trace_collector.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "volt/calibration.hpp"
#include "volt/cpu_package.hpp"
#include "volt/device_profile.hpp"
#include "volt/msr.hpp"
#include "volt/thermal_governor.hpp"
#include "volt/volt_fault_model.hpp"
#include "volt/voltage_domain.hpp"
