module cliffhanger/bench

go 1.22

require cliffhanger v0.0.0

replace cliffhanger => ../
