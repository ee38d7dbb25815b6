# Pins a fresh X-Mem characterization byte for byte: the profiles
# `lll characterize all --fresh --jobs 4` writes must equal
# tests/golden/fresh_profiles.txt, each file under a "== <name>" line.
# The committed profiles predate the current simulator, so this is the
# one check on what the harness measures now.
# Run via: cmake -DLLL_BIN=... -DREPO_ROOT=... -DGOLDEN_DIR=...
#                -DWORK_DIR=... -P fresh_profiles.cmake

include(${CMAKE_CURRENT_LIST_DIR}/capture.cmake)

set(dir ${WORK_DIR}/fresh_profiles)
file(REMOVE_RECURSE ${dir})
execute_process(COMMAND ${CMAKE_COMMAND} -E env LLL_PROFILE_DIR=${dir}
                        ${LLL_BIN} characterize all --fresh --jobs 4
                WORKING_DIRECTORY ${REPO_ROOT}
                RESULT_VARIABLE got
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT got EQUAL 0)
    message(FATAL_ERROR
            "lll characterize all --fresh --jobs 4: expected exit 0, "
            "got ${got}\n${out}${err}")
endif()
foreach(name skl knl a64fx)
    file(READ ${dir}/${name}.profile bytes)
    string(APPEND text "== ${name}.profile\n${bytes}")
endforeach()
file(REMOVE_RECURSE ${dir})
compare_golden(fresh_profiles.txt)
