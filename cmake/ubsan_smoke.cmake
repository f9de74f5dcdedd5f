# Configures, builds and runs the kernel tests under UndefinedBehaviorSanitizer
# in a nested build tree. UBSan is the right sanitizer for the SIMD backends:
# the kernels are intrinsics plus shift/overflow-heavy integer math, exactly
# the class of bug (bad shift widths, signed overflow, misaligned access)
# that TSan/ASan cannot see. `migration_test` runs too, for the migration
# executor's int32 slot arithmetic, `block_io_recovery_test`, for the
# journaled commit pass on real bytes (torn copies, EIO re-queues), and
# `snapshot_test` and `checkpoint_restart_test`, for the snapshot decoder's
# binary rows (a row length multiplied by its width). The build halts at
# the first report (`-fno-sanitize-recover=undefined`), so a report fails
# the test. Driven by the `ubsan_smoke` ctest entry; also runnable directly:
#   cmake -DSOURCE_DIR=. -DBINARY_DIR=build/ubsan-smoke -P cmake/ubsan_smoke.cmake
foreach(var SOURCE_DIR BINARY_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ubsan_smoke.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DSCADDAR_SANITIZE=undefined -DCMAKE_BUILD_TYPE=Debug
  RESULT_VARIABLE configure_result)
if(configure_result)
  message(FATAL_ERROR "UBSan configure failed: ${configure_result}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR}
          --target simd_kernel_test batch_equivalence_test intmath_test
                   fault_injection_test cluster_test storage_backend_test
                   governor_property_test migration_test
                   block_io_recovery_test snapshot_test
                   checkpoint_restart_test
  RESULT_VARIABLE build_result)
if(build_result)
  message(FATAL_ERROR "UBSan build failed: ${build_result}")
endif()

execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${BINARY_DIR}
          -R "simd_kernel_test|batch_equivalence_test|intmath_test|^fault_injection_test$|^cluster_test$|storage_backend_test|governor_property_test|^migration_test$|^block_io_recovery_test$|^snapshot_test$|^checkpoint_restart_test$"
          --output-on-failure
  RESULT_VARIABLE test_result)
if(test_result)
  message(FATAL_ERROR "UBSan smoke tests failed: ${test_result}")
endif()
