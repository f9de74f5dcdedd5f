# Configures, builds and runs the concurrency tests under ThreadSanitizer in
# a nested build tree. Driven by the `tsan_smoke` ctest entry so the thread
# pool, pooled cluster rounds and the sync file backend's disk workers are
# race-checked as part of tier-1; also runnable directly:
#   cmake -DSOURCE_DIR=. -DBINARY_DIR=build/tsan-smoke -P cmake/tsan_smoke.cmake
foreach(var SOURCE_DIR BINARY_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tsan_smoke.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DSCADDAR_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug
  RESULT_VARIABLE configure_result)
if(configure_result)
  message(FATAL_ERROR "TSan configure failed: ${configure_result}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR}
          --target thread_pool_test fault_injection_test
                   cluster_test storage_backend_test governor_property_test
  RESULT_VARIABLE build_result)
if(build_result)
  message(FATAL_ERROR "TSan build failed: ${build_result}")
endif()

execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${BINARY_DIR}
          -R "thread_pool_test|^fault_injection_test$|^cluster_test$|storage_backend_test|governor_property_test"
          --output-on-failure
  RESULT_VARIABLE test_result)
if(test_result)
  message(FATAL_ERROR "TSan smoke tests failed: ${test_result}")
endif()
