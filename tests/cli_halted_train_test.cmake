# A `tablegan_cli train` run that the divergence guard halts must exit 1
# (not abort) and leave the last-good model at --model: the bytes of an
# uninterrupted 1-epoch run, readable by `sample`.
#
#   cmake -DCLI=<path to tablegan_cli> -DWORK_DIR=<scratch dir>
#         -P cli_halted_train_test.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<expected exit code> <command...>)
function(run expected)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    message(FATAL_ERROR
      "${ARGN}\nexited '${rc}', expected ${expected}\n${out}${err}")
  endif()
endfunction()

set(table --data t.csv --schema t.schema)
run(0 "${CLI}" demo --dataset adult --rows 240 ${table})
# The failpoint makes epoch 2's losses NaN; the default --diverge halt
# stops the run there with epoch 1 as the last-good state.
run(1 "${CMAKE_COMMAND}" -E env "TABLEGAN_FAILPOINTS=train.loss_nan=after(1)"
    "${CLI}" train ${table} --model halted.tgan --epochs 3)
run(0 "${CLI}" sample --model halted.tgan --rows 40 --out s.csv)
run(0 "${CLI}" train ${table} --model one_epoch.tgan --epochs 1)
run(0 "${CMAKE_COMMAND}" -E compare_files halted.tgan one_epoch.tgan)
