module deepcat/bench

go 1.22

require deepcat v0.0.0

replace deepcat => ../
