# Asserts the unified `--help` contract (DESIGN.md §17.5): every
# subcommand answers `lll <cmd> --help` with exit 0, the shared
# "usage: lll" header, and the flags it registered on its ArgParser —
# even when the surrounding arguments would otherwise be a usage error.
# Run via: cmake -DLLL_BIN=<path-to-lll> -P cli_help.cmake

# expect_help(<cmd> [needle ...]): `lll <cmd> --help` exits 0, prints
# the shared usage header, and mentions every needle.
function(expect_help cmd)
    execute_process(COMMAND ${LLL_BIN} ${cmd} --help
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT got EQUAL 0)
        message(FATAL_ERROR
                "lll ${cmd} --help: expected exit 0, got ${got}\n"
                "${out}${err}")
    endif()
    if(NOT out MATCHES "usage: lll")
        message(FATAL_ERROR
                "lll ${cmd} --help: missing shared usage header:\n"
                "${out}")
    endif()
    foreach(needle ${ARGN})
        string(FIND "${out}" "${needle}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                    "lll ${cmd} --help: registered flag "
                    "\"${needle}\" not documented:\n${out}")
        endif()
    endforeach()
endfunction()

# Every dispatched subcommand answers --help, with its registered
# flags present in the rendered text.
expect_help(platforms)
expect_help(workloads)
expect_help(vendors)
expect_help(characterize --fresh --jobs)
expect_help(analyze --cores --json --metrics)
expect_help(trace --cores --json --metrics)
expect_help(walk)
expect_help(table --jobs --cache-dir --spill-budget)
expect_help(sweep --jobs --cache-dir --max-entries --json)
expect_help(reproduce --jobs --cache-dir)
expect_help(roofline)
expect_help(selftest --iterations --seed --verbose)
expect_help(lint --profile --json --determinism --seeds)
expect_help(audit --root --json --fix-plan)
expect_help(serve --batch --jobs --listen --listen-unix
            --max-inflight --watchdog-ms)
expect_help(search --axis --point --list-axes --no-prune
            --bank-weight --max-candidates --jobs --json)
expect_help(bench --trials --json --compare)
expect_help(bench-serve --connect --qps --json)
expect_help(profile --out --top)

# -h is the short spelling, and help mode wins over what would
# otherwise be usage errors around it.
execute_process(COMMAND ${LLL_BIN} search -h
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR "lll search -h: expected exit 0, got ${got}")
endif()
execute_process(COMMAND ${LLL_BIN} analyze --help --bogus
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR
            "lll analyze --help --bogus: help must win (exit 0), "
            "got ${got}")
endif()

# The bare forms print the command index and exit 0.
foreach(form help --help -h)
    execute_process(COMMAND ${LLL_BIN} ${form}
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT got EQUAL 0)
        message(FATAL_ERROR
                "lll ${form}: expected exit 0, got ${got}")
    endif()
    if(NOT out MATCHES "search")
        message(FATAL_ERROR
                "lll ${form}: command index does not list search:\n"
                "${out}")
    endif()
endforeach()
