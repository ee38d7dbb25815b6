# Asserts the CLI exit-code contract documented in README "Robustness":
#   2 = usage error (unknown command/flag/malformed request)
#   3 = bad input data (unknown workload/platform, corrupt profile)
# Run via: cmake -DLLL_BIN=<path-to-lll> -DREPO_ROOT=<source dir>
#                -DWORK_DIR=<scratch dir> -P cli_exit_codes.cmake
# Every file the script writes goes under WORK_DIR.

if(NOT WORK_DIR)
    message(FATAL_ERROR "cli_exit_codes.cmake needs -DWORK_DIR=<dir>")
endif()

function(expect_exit code)
    execute_process(COMMAND ${LLL_BIN} ${ARGN}
                    RESULT_VARIABLE got
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT got EQUAL ${code})
        message(FATAL_ERROR
                "lll ${ARGN}: expected exit ${code}, got ${got}")
    endif()
endfunction()

expect_exit(2 frobnicate)                    # unknown command
expect_exit(2)                               # no command at all
expect_exit(2 analyze)                       # missing operands
expect_exit(2 analyze isx skl --bogus)       # unknown flag
expect_exit(2 analyze isx skl nonsense-opt)  # unknown optimization
expect_exit(2 selftest --iterations nope)    # malformed flag value
expect_exit(2 selftest --iterations)         # dangling flag
expect_exit(3 analyze isx nope)              # unknown platform
expect_exit(3 analyze nope skl)              # unknown workload

# Unknown flags/operands after a valid subcommand are usage errors on
# every subcommand, not just analyze.
expect_exit(2 platforms --bogus)
expect_exit(2 workloads --bogus)
expect_exit(2 vendors extra)
expect_exit(2 characterize skl --bogus)
expect_exit(2 walk isx skl --bogus)
expect_exit(2 table isx extra)
expect_exit(2 roofline skl --bogus)

# --cores: zero/garbage are usage errors.
expect_exit(2 analyze isx skl --cores 0)
expect_exit(2 analyze isx skl --cores nope)
expect_exit(2 trace isx skl --cores 0)
expect_exit(2 analyze isx skl --cores 4294967306)   # would wrap to 10

# A config whose derived bounds are statically vacuous (one KNL core
# barely loads the memory system, LLL-LINT-102) is refused with exit 3
# before any profile loads: no X-Mem characterization runs, and the
# empty profile directory stays empty.  `lll analyze` and a one-line
# `serve --batch` of the same request refuse it alike.
set(_vacuous_dir "${WORK_DIR}/vacuous_profiles")
set(_vacuous "stage unit knl/isx: experiment 'isx' on 'knl' with 1 cores is vacuous \\(LLL-LINT-102\\)")
file(REMOVE_RECURSE "${_vacuous_dir}")
file(MAKE_DIRECTORY "${_vacuous_dir}")
file(WRITE "${WORK_DIR}/vacuous.jsonl"
     "{\"schema_version\": 1, \"platform\": \"knl\", \"workload\": \"isx\", \"cores\": 1}\n")
function(expect_vacuous_refused expected)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            LLL_PROFILE_DIR=${_vacuous_dir}
                            ${LLL_BIN} ${ARGN}
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(REPLACE ";" " " cmd "${ARGN}")
    if(NOT got EQUAL 3 OR NOT "${out}${err}" MATCHES "${expected}")
        message(FATAL_ERROR "lll ${cmd}: expected exit 3 with the "
                            "LLL-LINT-102 refusal, got ${got}:\n"
                            "${out}${err}")
    endif()
    file(GLOB written "${_vacuous_dir}/*")
    if(written)
        message(FATAL_ERROR "lll ${cmd} wrote ${written} before "
                            "refusing a vacuous config")
    endif()
endfunction()
expect_vacuous_refused("lll: failed-precondition: ${_vacuous}"
                       analyze isx knl --cores 1)
expect_vacuous_refused("\"code\": \"failed-precondition\", \"exit\": 3, \"message\": \"${_vacuous}"
                       serve --batch "${WORK_DIR}/vacuous.jsonl")

# An SMT request the platform cannot run fails its stage unit with
# failed-precondition (exit 3); it must not abort the process.  Run
# from the source tree on the committed profiles.
foreach(cmd "comd;a64fx;2-ht" "isx;skl;4-ht")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env --unset=LLL_PROFILE_DIR
                            ${LLL_BIN} analyze ${cmd}
                    WORKING_DIRECTORY ${REPO_ROOT}
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT got EQUAL 3 OR NOT err MATCHES "lll: failed-precondition: "
       OR "${out}${err}" MATCHES "panic:")
        string(REPLACE ";" " " cmd "${cmd}")
        message(FATAL_ERROR "lll analyze ${cmd}: expected exit 3 with a "
                            "failed-precondition line, got ${got}:\n"
                            "${out}${err}")
    endif()
endforeach()

# table/sweep/reproduce share the SweepRunner flags.
expect_exit(2 sweep extra)
expect_exit(2 sweep --jobs 0)
expect_exit(2 sweep --jobs)
expect_exit(2 reproduce --jobs nope)
expect_exit(2 reproduce extra)
expect_exit(2 table isx --jobs 0)

# A corrupt skl profile beside intact knl/a64fx ones is bad input data
# for the paper tables (exit 3), and refuses the plan before any stage
# simulates: the spill directory stays empty.
set(_corrupt_dir "${WORK_DIR}/corrupt_profiles")
set(_corrupt_spill "${WORK_DIR}/corrupt_spill")
file(REMOVE_RECURSE "${_corrupt_dir}" "${_corrupt_spill}")
file(COPY "${REPO_ROOT}/data/profiles/knl.profile"
          "${REPO_ROOT}/data/profiles/a64fx.profile"
     DESTINATION "${_corrupt_dir}")
file(WRITE "${_corrupt_dir}/skl.profile"
     "platform skl\npeak_gbs 100\npoint 10")
foreach(cmd "table;isx" "sweep" "reproduce")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            LLL_PROFILE_DIR=${_corrupt_dir}
                            ${LLL_BIN} ${cmd} --jobs 2
                            --cache-dir ${_corrupt_spill}
                    RESULT_VARIABLE got
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT got EQUAL 3)
        message(FATAL_ERROR "lll ${cmd} with a corrupt skl profile: "
                            "expected exit 3, got ${got}")
    endif()
    if(NOT err MATCHES "lll: corrupt-data: sweep: profile for 'skl': ")
        message(FATAL_ERROR "lll ${cmd} with a corrupt skl profile: "
                            "unexpected error line: ${err}")
    endif()
    file(GLOB _spilled "${_corrupt_spill}/*")
    if(_spilled)
        message(FATAL_ERROR "lll ${cmd} with a corrupt skl profile "
                            "simulated before refusing: ${_spilled}")
    endif()
endforeach()

# lint --profile: flag errors exit 2, an unreadable file is bad input
# data (LLL-PROF-101, exit 3).
expect_exit(2 lint --profile)
expect_exit(2 lint --profile file extra)
expect_exit(3 lint --profile /nonexistent/profile.txt)

# lint: usage errors exit 2, infeasible configs exit 3 with LLL-PLAT-001.
# serve: flag errors exit 2; an unreadable batch file and a batch with
# any failed request are bad input (exit 3); an empty batch is ok.
expect_exit(2 serve --bogus)
expect_exit(2 serve extra)
expect_exit(2 serve --jobs 0)
expect_exit(2 serve --jobs)
expect_exit(2 serve --max-entries 0)
expect_exit(2 serve --spill-budget nope)
expect_exit(2 serve --batch)
expect_exit(3 serve --batch /nonexistent/batch.jsonl)
set(_serve_dir "${WORK_DIR}/serve_exit_codes")
file(MAKE_DIRECTORY "${_serve_dir}")
file(WRITE "${_serve_dir}/empty.jsonl" "")
expect_exit(0 serve --batch "${_serve_dir}/empty.jsonl")
expect_exit(2 serve --batch "${_serve_dir}/empty.jsonl" --spill-budget -1)
# The socket front-end's flags are refused in batch mode.
expect_exit(2 serve --batch "${_serve_dir}/empty.jsonl" --max-inflight 3)
file(WRITE "${_serve_dir}/bad.jsonl"
     "{\"schema_version\": 1, \"platform\": \"nope\", \"workload\": \"isx\"}\n")
expect_exit(3 serve --batch "${_serve_dir}/bad.jsonl")

# A request whose stage trips the forward-progress watchdog (an inline
# random stream that thinks 1e12 cycles between requests) fails alone:
# its line carries the deadline-exceeded status, the next request gets
# the answer it gets on its own, the batch exits 3 like any batch with
# a failed request, and nothing dies with `fatal:`.  Run from the
# source tree on the committed skl profile.
set(_control
    "{\"schema_version\": 1, \"id\": \"control\", \"platform\": \"skl\", \"workload\": \"isx\"}\n")
file(WRITE "${_serve_dir}/control.jsonl" "${_control}")
file(WRITE "${_serve_dir}/wedge.jsonl"
     "{\"schema_version\": 1, \"id\": \"wedge\", \"platform\": \"skl\", \"random_dominated\": true, \"spec\": {\"name\": \"wedge\", \"compute_cycles_per_op\": 1e12, \"streams\": [{\"kind\": \"random\"}]}}\n${_control}")
foreach(batch control wedge)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env --unset=LLL_PROFILE_DIR
                            ${LLL_BIN} serve
                            --batch "${_serve_dir}/${batch}.jsonl"
                    WORKING_DIRECTORY ${REPO_ROOT}
                    RESULT_VARIABLE ${batch}_exit
                    OUTPUT_VARIABLE ${batch}_out
                    ERROR_VARIABLE ${batch}_err)
    if("${${batch}_out}${${batch}_err}" MATCHES "fatal:")
        message(FATAL_ERROR "serve --batch ${batch}.jsonl died:\n"
                            "${${batch}_err}")
    endif()
endforeach()
if(NOT control_exit EQUAL 0 OR NOT wedge_exit EQUAL 3)
    message(FATAL_ERROR "serve --batch: expected exits 0 (control) and 3 "
                        "(wedge), got ${control_exit} and ${wedge_exit}:\n"
                        "${wedge_err}")
endif()
string(FIND "${wedge_out}" "\n" _nl)
string(SUBSTRING "${wedge_out}" 0 ${_nl} _first)
math(EXPR _nl "${_nl} + 1")
string(SUBSTRING "${wedge_out}" ${_nl} -1 _rest)
if(NOT _first MATCHES "^{\"schema_version\": 1, \"id\": \"wedge\", \"status\": {\"code\": \"deadline-exceeded\"")
    message(FATAL_ERROR "serve --batch: the wedged request was not "
                        "answered with deadline-exceeded:\n${_first}")
endif()
if(NOT _rest STREQUAL control_out)
    message(FATAL_ERROR "serve --batch: the request after the wedged one "
                        "was answered differently than on its own:\n"
                        "${_rest}\nvs.\n${control_out}")
endif()

# search: the cost-model bounds a serve search request obeys hold on
# the CLI too (a huge bank weight used to print a garbled table).
expect_exit(2 search isx skl --axis l2_mshrs=8:16:*2 --bank-weight 1e12)

expect_exit(2 lint isx)                      # platform missing
expect_exit(2 lint isx skl nonsense-opt)     # unknown optimization
expect_exit(2 lint --json)                   # dangling flag
expect_exit(2 lint isx skl --bogus)          # unknown flag
expect_exit(3 lint isx nope)                 # unknown platform
expect_exit(3 lint nope skl)                 # unknown workload
expect_exit(3 lint isx skl 4-ht)             # statically infeasible
expect_exit(0 lint isx skl)                  # feasible spec lints clean

# --seeds takes unsigned integers: "-1" used to wrap to 2^64 - 1 and a
# leading space passed.
expect_exit(2 lint isx skl --determinism --seeds -1)
expect_exit(2 lint isx skl --determinism --seeds " 3")

# Two exports on stdout would interleave two documents.
expect_exit(2 analyze isx skl --json - --metrics -)
expect_exit(2 trace isx skl --json - --metrics -)
