# Runs the deterministic EXP-I bench (bench_faults) and the failure drill
# example and compares each stdout byte for byte with its checked-in golden,
# tests/golden/bench_faults.out and tests/golden/failure_drill.out. Driven
# by the `program_goldens` ctest entry; also runnable directly:
#   cmake -DBENCH_FAULTS=build/bench/bench_faults \
#         -DFAILURE_DRILL=build/examples/failure_drill \
#         -DGOLDEN_DIR=tests/golden -DOUT_DIR=build/program_goldens \
#         -P cmake/program_goldens.cmake
# A mismatch leaves the actual output under OUT_DIR.
foreach(var BENCH_FAULTS FAILURE_DRILL GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "program_goldens.cmake requires -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
set(failed "")
foreach(program ${BENCH_FAULTS} ${FAILURE_DRILL})
  get_filename_component(name ${program} NAME_WE)
  execute_process(
    COMMAND ${program}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE exit_code)
  file(WRITE ${OUT_DIR}/${name}.out "${actual}")
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "${name}: exited with ${exit_code}")
    list(APPEND failed ${name})
  elseif(NOT EXISTS ${GOLDEN_DIR}/${name}.out)
    message(SEND_ERROR "${name}: no golden ${GOLDEN_DIR}/${name}.out")
    list(APPEND failed ${name})
  else()
    file(READ ${GOLDEN_DIR}/${name}.out expected)
    if(NOT actual STREQUAL expected)
      message(SEND_ERROR
        "${name}: output differs from ${GOLDEN_DIR}/${name}.out; see "
        "${OUT_DIR}/${name}.out")
      list(APPEND failed ${name})
    endif()
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "program goldens failed: ${failed}")
endif()
message(STATUS "bench_faults and failure_drill match their goldens")
